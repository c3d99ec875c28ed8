"""Gaussian simulation of state-dependent coherent-state cloning.

A simulation library and CLI for a linear-optics cloning machine with
measurement feedforward: exact Gaussian-state evolution, analytic clone
statistics, average-fidelity benchmarks for restricted input alphabets,
numerical optimisation against the closed-form optima, and a trajectory
Monte Carlo engine with experimental imperfections.
"""

from .benchmarks import (
    Alphabet,
    KnownPhase,
    Regime,
    Single,
    SymmetricGaussian,
    average_fidelity,
    classical_gaussian_alphabet,
    classical_known_phase,
    gaussian_alphabet_fidelity,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from .cloner import (
    CloneStatistics,
    ClonerConfig,
    CloningCircuit,
    build_circuit,
    clone_output_state,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)
from .gaussian import (
    GaussianState,
    MeasurementRecord,
    Quadrature,
    QuadratureKind,
    beam_splitter,
    coherent,
    displace,
    fidelity_coherent_vs_gaussian,
    measure_quadrature,
    partial_trace,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    vacuum,
)
from .experiments import reproduce_figure3, reproduce_figure4
from .montecarlo import TrajectoryBatch, compare_with_analytic, run_batch
from .optimize import (
    OptimizationResult,
    golden_section_max,
    optimize_classical,
    optimize_phase_known,
    optimize_t1,
)

__version__ = "0.1.0"
