"""Simulator library for decentralized first-order optimization over
unbalanced directed graphs: accelerated push-sum gradient-tracking solvers,
baselines, and full diagnostic instrumentation.
"""

from .graphs import (
    DirectedGraph,
    build_cycle_plus_random,
    is_strongly_connected,
    load_edge_list,
    save_edge_list,
)
from .mixing import (
    MixingMatrix,
    NormTransform,
    build_contraction_norm,
    perron_vector,
    uniform_out_weights,
)
from .objectives import (
    LabeledDataset,
    LogisticSuite,
    ObjectiveSuite,
    QuadraticSuite,
    global_minimizer,
    load_labeled_csv,
    make_logistic_suite,
    make_quadratic_suite,
    standardize_features,
    synthetic_logistic_dataset,
    write_labeled_csv,
)
from .solvers import (
    APDParams,
    APDSCParams,
    DivergenceError,
    PushDIGingParams,
    SolverState,
    SubgradPushParams,
    TheoryInputs,
    apd_run,
    apdsc_run,
    calibrate_theory_inputs,
    default_params_sc,
    default_params_smooth,
    init_state,
    push_diging_run,
    run,
    subgradient_push_run,
)
from .diagnostics import (
    IdentityMonitor,
    RunTrace,
    TraceRecorder,
    consensus_error,
    fit_linear_rate,
    fit_sublinear_rate,
    iterations_to_threshold,
    lyapunov,
    optimality_gap,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    emit_csv,
    emit_svg_plot,
    read_trace_csv,
    reproduce_paper_experiment,
    run_experiment,
)

__version__ = "0.1.0"
