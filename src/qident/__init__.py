"""qident: exact coefficientwise verification of q-series and overpartition identities."""

from .borel import borel_apply
from .identities import (
    OrderBudgetExceeded,
    UnknownIdentity,
    named_series,
    registry_ids,
    verify,
    verify_group,
)
from .lpi import (
    Automaton,
    LinkingViolation,
    LpiError,
    LpiSpec,
    NotInLanguage,
    UnknownBlock,
    compose,
    decompose,
    gap4_ideal,
    g_vector,
    language,
    matrices,
)
from .multisum import (
    MultiSumSpec,
    NonTerminatingSum,
    SumNode,
    eval_sum,
    expand_tree,
    quinvariate_spec,
    rec_step,
    shift_beta_for_x,
    verify_matrix_relation,
)
from .partitions import (
    Overpartition,
    PartStats,
    SET_IDS,
    enum_overpartitions,
    enum_set,
    in_A,
    stats,
    weighted_gf,
)
from .products import (
    DivergentProduct,
    InexactDivision,
    PochSpec,
    euler1,
    euler2,
    inv_qpoch,
    poch,
    poch_finite,
    poch_inf,
    poch_inverse,
    qbinom,
)
from .report import IdentityReport
from .series import (
    ArityMismatch,
    ExponentOverflow,
    Mismatch,
    NotInvertible,
    Q_VARS,
    QUIN_VARS,
    QX_VARS,
    QXY_VARS,
    Series,
    SeriesError,
    TruncationExceeded,
    VarSet,
    VarSetMismatch,
    varset,
)

__version__ = "0.1.0"
