"""awkit: a desk-scale workbench for finite-dimensional *-algebras.

Direct sums of complex matrix blocks with certified spectral machinery:
Loewner comparisons, order-limit certificates, projection-lattice and
monotone-closure constructions, projection-valued spectral measures, and
polar decomposition through a regularized resolvent ladder.
"""

from . import errors
from .core import (
    DEFAULT_TOL,
    AlgebraElement,
    HermitianEigenSystem,
    Projection,
    ToleranceConfig,
    adjoint,
    eigh_hermitian,
    frobenius_norm,
    imag_part,
    is_self_adjoint,
    loewner_leq,
    operator_norm,
    positive_sqrt,
    range_projection,
    real_part,
    simultaneous_eigh,
)
from .lattice import (
    ClosureCorrespondence,
    Subalgebra,
    closure_correspondence,
    generate_masa,
    minimal_projections,
    monotone_closure,
    principal_angles,
    relative_commutant,
    spans_equal,
)
from .order import (
    DominatorEnvelope,
    LimitReport,
    OrderLimitCertificate,
    build_certificate,
    limit_calculus_check,
    verify_certificate,
)
from .polar import (
    CutResiduals,
    PolarResiduals,
    PolarResult,
    SpectralCut,
    cut_residuals,
    polar_direct,
    polar_regularized,
    polar_residuals,
    resolvent_gap_inequality,
    spectral_cut,
    verify_polar,
)
from .spectral import (
    SpectralFunction,
    SpectralMeasure,
    SpectralResiduals,
    Spectrum,
    check_regularity,
    integrate,
    is_normal,
    measure_residuals,
    spectral_measure,
    spectral_residuals,
)

__version__ = "0.1.0"
