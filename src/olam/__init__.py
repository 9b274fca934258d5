"""Dependently typed terms with transparent choice and opaque oracles.

The package type checks a small dependent lambda calculus whose terms may
flip weighted coins in the open (choices carry their probability in the
syntax) or call oracles whose answer rule is outside the language.  It
runs programs by seeded sampling, derives their exact output distribution
together with checkable evidence for every outcome, and issues trust
verdicts, with replayable certificates, against declared targets.
"""

from .checker import (
    CheckedProgram,
    Environment,
    check_kind,
    check_program,
    check_type,
    infer_kind,
    infer_type,
)
from .conversion import con_equiv, normalize_con, normalize_kind
from .errors import (
    CheckError,
    OlamError,
    OracleError,
    ParseError,
    ReductionError,
    TraceError,
    TrustError,
)
from .oracles import OracleDef, OracleRegistry, OracleRule
from .printer import show, term_key
from .reducer import (
    SampleResult,
    TermRedex,
    deterministic_strategy,
    find_redexes,
    run_sample,
    sample_seed,
    step,
)
from .surface import (
    parse_distribution,
    parse_kind,
    parse_oracle_file,
    parse_program,
    parse_rational_text,
    parse_term,
    parse_type,
)
from .syntax import DEFAULT_FUEL, Fuel, alpha_eq, substitute
from .traces import (
    Distribution,
    MapstoJudgment,
    TraceQuadruple,
    check_trace,
    derive_judgment,
    enumerate_distribution,
    enumerate_paths,
    forced_oracle_form,
    not_equiv_nd,
    oracle_frequency,
)
from .trust import (
    TrustReport,
    TrustRow,
    TrustSpec,
    build_certificate,
    replay_certificate,
    trust_check,
)

__version__ = "0.1.0"
