"""repro — a reproduction of *Automatic Inline Allocation of Objects*
(Julian Dolby, PLDI 1997).

The package implements, from scratch:

- **mini-ICC++** (:mod:`repro.lang`): a dynamic uniform-object-model
  language in the spirit of the paper's ICC++ input.
- **IR** (:mod:`repro.ir`): a register CFG consumed by everything below.
- **Concert-style analysis** (:mod:`repro.analysis`): context-sensitive
  concrete type inference over method/object contours, plus the paper's
  field-origin tag analysis (§4.1) and pass-by-value predicates (§4.2).
- **Object inlining** (:mod:`repro.inlining`, :mod:`repro.cloning`): the
  decision engine, class/method cloning, and the §5 program rewriting.
- **An instrumented VM** (:mod:`repro.runtime`): simulated heap + cache
  simulator + cost model, standing in for the paper's SparcStation runs.
- **The paper's benchmarks** (:mod:`repro.bench`): OOPACK, Richards,
  Silo, and polygon overlay, with harnesses regenerating Figures 14-17.

Quickstart::

    from repro import CompileConfig, Session

    session = Session(SOURCE)
    report = session.optimize(CompileConfig(inline=True))
    result = session.run("inline")
    print(result.output, result.stats.cycles())

:class:`Session` owns the config + tracer threading and caches every
intermediate artifact (IR, analysis results, per-build reports);
:class:`CompileConfig` is the immutable, content-hashable description
of one build, and :class:`SessionPool` manages per-tenant sessions for
long-lived drivers.  The **compile service** builds on all three::

    repro serve --socket /tmp/repro.sock     # async compile daemon
    repro loadgen --requests 500             # latency/throughput client

(see :mod:`repro.service` and docs/SERVICE.md).
"""

from .analysis import AnalysisCache, AnalysisConfig, AnalysisResult
from .inlining.decisions import Candidate, DecisionEngine, InlinePlan
from .inlining.pipeline import OptimizeReport
from .ir import format_program, validate_program
from .lang import parse_program, tokenize
from .obs import NULL_TRACER, Tracer, tracer_to_file
from .runtime import (
    CacheConfig,
    CostModel,
    ExecutionStats,
    Interpreter,
    ReproRuntimeError,
    RunResult,
)
from .session import (
    CompileConfig,
    Session,
    SessionPool,
    source_key,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AnalysisCache",
    "AnalysisConfig",
    "AnalysisResult",
    "CacheConfig",
    "Candidate",
    "CompileConfig",
    "CostModel",
    "DecisionEngine",
    "ExecutionStats",
    "format_program",
    "InlinePlan",
    "Interpreter",
    "NULL_TRACER",
    "Tracer",
    "tracer_to_file",
    "OptimizeReport",
    "parse_program",
    "ReproRuntimeError",
    "RunResult",
    "Session",
    "SessionPool",
    "source_key",
    "tokenize",
    "validate_program",
]
