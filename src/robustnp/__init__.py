"""Exact worst-case hypothesis testing between families of charges.

The package works over a finite list of atoms plus an optional tail
marker carrying purely finitely additive mass, and keeps every number a
Fraction end to end. The main entry points:

* :func:`solve_minimax` computes the optimal worst-case test together
  with a least favorable mixture and a verifiable optimality
  certificate.
* :func:`np_test` solves the classical single-pair problem by the
  likelihood ratio construction.
* :func:`hypothesis_report` checks the structural conditions that the
  representation results lean on.
* :mod:`robustnp.oracle` brute-forces small instances for cross checks.
"""

from .charge_model import (
    TAIL_LABEL,
    Charge,
    Decomposition,
    DensityPair,
    Event,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    expectation,
    frac,
    lower_expectation,
    mix,
    radon_nikodym,
    upper_expectation,
    yosida_hewitt,
)
from .hypotheses import (
    GENERATORS,
    HypothesisReport,
    canonical_tail_sequence,
    check_continuity_from_above,
    check_h1,
    check_h2_at,
    check_h3,
    hypothesis_report,
    nonexistence_problem,
    truncation_sweep,
)
from .minimax import (
    Case,
    CertificateError,
    DualCertificate,
    PureLeastFavorableError,
    RepresentationReport,
    Solution,
    TestProblem,
    beta_criterion_check,
    compute_beta,
    detect_case,
    kkt_certificate,
    solve_minimax,
    verify_degenerate_form,
    verify_threshold_form,
)
from .neyman_pearson import NpResult, np_test
from .oracle import OracleResult, beta_oracle, np_oracle, vertex_enumerate
from .simplex import LpSolution, solve_lp

__version__ = "0.1.0"

__all__ = [
    "TAIL_LABEL",
    "Charge",
    "Decomposition",
    "DensityPair",
    "Event",
    "SampleSpace",
    "SublinearExpectation",
    "TestFunction",
    "expectation",
    "frac",
    "lower_expectation",
    "mix",
    "radon_nikodym",
    "upper_expectation",
    "yosida_hewitt",
    "GENERATORS",
    "HypothesisReport",
    "canonical_tail_sequence",
    "check_continuity_from_above",
    "check_h1",
    "check_h2_at",
    "check_h3",
    "hypothesis_report",
    "nonexistence_problem",
    "truncation_sweep",
    "Case",
    "CertificateError",
    "DualCertificate",
    "PureLeastFavorableError",
    "RepresentationReport",
    "Solution",
    "TestProblem",
    "beta_criterion_check",
    "compute_beta",
    "detect_case",
    "kkt_certificate",
    "solve_minimax",
    "verify_degenerate_form",
    "verify_threshold_form",
    "NpResult",
    "np_test",
    "OracleResult",
    "beta_oracle",
    "np_oracle",
    "vertex_enumerate",
    "LpSolution",
    "solve_lp",
    "__version__",
]
