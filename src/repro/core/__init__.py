"""Polynima core: the paper's contribution.

Hybrid control-flow recovery (static disassembly + ICFT tracing +
additive lifting), machine-code-to-IR translation on thread-local
virtual CPU state, multithreading support (atomics, per-thread emulated
stacks, callback wrappers), Lasagne-style fence insertion, the implicit
synchronisation (spinloop) detector with fence removal, and the
IR-to-machine-code backend producing standalone replacement binaries.
"""

from .additive import AdditiveLifting, AdditiveReport
from .artifact_cache import (ARTIFACT_FORMAT, PIPELINE_VERSION, ArtifactCache,
                             CacheError, CachedArtifact, default_cache_dir,
                             stable_digest)
from .batch import (OPT_LEVELS, BatchError, BatchResult, CachedRecompilation,
                    JobResult, RecompileJob, execute_job, hybrid_recompile,
                    jobs_for_group, load_manifest, run_batch)
from .callbacks import CallbackReport, discover_callbacks
from .fence_opt import FenceOptReport, optimize_fences
from .spinloop import (NON_SPINNING, SPINNING, UNCOVERED, LoopVerdict,
                       SpinloopDetector, SpinloopReport, clone_module)
from .cfg import BlockInfo, FunctionCFG, RecoveredCFG
from .disassembler import Disassembler, DisassemblyError
from .fences import (FenceInsertion, FenceMerge, count_fences,
                     remove_lasagne_fences)
from .icft_tracer import ICFTTracer, TraceResult
from .instrument import (AccessInstrumentation, assign_site_ids,
                         merge_access_logs, site_id_of, tag_sites)
from .lifter import Lifter, LiftError
from .lowering import FunctionLowering, LoweringError
from .recompiler import RecompileResult, RecompileStats, Recompiler
from .runner import (DifferentialRaceReport, RunResult,
                     differential_race_check, make_library, run_image)
from .runtime import RecompiledBinaryBuilder
from .transforms import (RecordExternalArgs, RedirectExternalCalls,
                         RestrictSwitchTargets)
from .translator import BlockTranslator, TranslationError
from .vstate import EMUSTACK_SIZE, TLS_BLOCK_SIZE, VirtualState

__all__ = [
    "AdditiveLifting", "AdditiveReport",
    "ARTIFACT_FORMAT", "PIPELINE_VERSION", "ArtifactCache", "CacheError",
    "CachedArtifact", "default_cache_dir", "stable_digest",
    "OPT_LEVELS", "BatchError", "BatchResult", "CachedRecompilation",
    "JobResult",
    "RecompileJob", "execute_job", "hybrid_recompile", "jobs_for_group",
    "load_manifest", "run_batch",
    "CallbackReport", "discover_callbacks",
    "FenceOptReport", "optimize_fences",
    "NON_SPINNING", "SPINNING", "UNCOVERED", "LoopVerdict",
    "SpinloopDetector", "SpinloopReport", "clone_module",
    "BlockInfo", "FunctionCFG", "RecoveredCFG",
    "Disassembler", "DisassemblyError",
    "FenceInsertion", "FenceMerge", "count_fences",
    "remove_lasagne_fences",
    "ICFTTracer", "TraceResult",
    "AccessInstrumentation", "assign_site_ids", "merge_access_logs",
    "site_id_of", "tag_sites",
    "Lifter", "LiftError",
    "FunctionLowering", "LoweringError",
    "RecompileResult", "RecompileStats", "Recompiler",
    "DifferentialRaceReport", "RunResult", "differential_race_check",
    "make_library", "run_image",
    "RecompiledBinaryBuilder",
    "RecordExternalArgs", "RedirectExternalCalls", "RestrictSwitchTargets",
    "BlockTranslator", "TranslationError",
    "EMUSTACK_SIZE", "TLS_BLOCK_SIZE", "VirtualState",
]
