"""Exact worst-case hypothesis testing between families of charges.

The package works over a finite list of atoms plus an optional tail
marker carrying purely finitely additive mass, and keeps every number a
Fraction end to end. The main entry points:

* :func:`solve_minimax` computes the optimal worst-case test together
  with a least favorable mixture and a verifiable optimality
  certificate.
* :func:`np_test` solves the classical single-pair problem by the
  likelihood ratio construction.
* :func:`verify_threshold_form` checks an attained-case solution against
  the ratio-cut form; the slack case's degenerate form needs no check, as
  the certificate proves it.
* :func:`hypothesis_report` reads the structural conditions that the
  representation results lean on off the two families' largest tail
  masses.
* :func:`vertex_enumerate` brute-forces small instances for cross checks.
"""

from .charge_model import (
    TAIL_LABEL,
    Charge,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    expectation,
    frac,
    lower_expectation,
    mix,
    upper_expectation,
)
from .hypotheses import (
    HypothesisReport,
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
    compute_beta,
    kkt_certificate,
    solve_minimax,
    verify_threshold_form,
)
from .neyman_pearson import NpResult, np_test
from .oracle import OracleResult, vertex_enumerate
from .simplex import LpSolution, solve_lp

__version__ = "0.1.0"

__all__ = [
    "TAIL_LABEL",
    "Charge",
    "SampleSpace",
    "SublinearExpectation",
    "TestFunction",
    "expectation",
    "frac",
    "lower_expectation",
    "mix",
    "upper_expectation",
    "HypothesisReport",
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
    "compute_beta",
    "kkt_certificate",
    "solve_minimax",
    "verify_threshold_form",
    "NpResult",
    "np_test",
    "OracleResult",
    "vertex_enumerate",
    "LpSolution",
    "solve_lp",
    "__version__",
]
