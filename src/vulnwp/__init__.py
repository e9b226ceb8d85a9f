"""vulnwp: rebuild vulnerable WordPress stacks from public exploit records.

The pipeline parses an exploit record, resolves the vulnerable core
version or extension payload, and emits a reproducible container bundle
(build file, compose manifest, setup script, provenance). Batch mode
produces coverage statistics over a whole corpus.
"""

from .config import DatabaseSpec, GeneratorConfig, SiteSpec
from .corpus import Corpus, ExploitRecord, load_corpus, parse_poc_header
from .iac import EnvironmentPlan, build_plan, emit_bundle
from .pipeline import (
    FailureReason,
    GenerationMode,
    GenerationOutcome,
    PipelineServices,
    generate,
)
from .reporting import BatchReport, run_batch, summarize
from .resolvers import (
    ComponentKind,
    ComponentSource,
    FetchedComponent,
    ImageRef,
    SourceClients,
    derive_slug,
    fetch_component,
    find_core_image,
)
from .titles import ExploitCategory, ParsedTitle, classify_corpus, parse_title
from .versions import (
    CpeEntry,
    Version,
    VersionConstraint,
    extract_version_from_poc,
    parse_version_expr,
    resolve_versions_from_cve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BatchReport",
    "ComponentKind",
    "ComponentSource",
    "Corpus",
    "CpeEntry",
    "DatabaseSpec",
    "EnvironmentPlan",
    "ExploitCategory",
    "ExploitRecord",
    "FailureReason",
    "FetchedComponent",
    "GenerationMode",
    "GenerationOutcome",
    "GeneratorConfig",
    "ImageRef",
    "ParsedTitle",
    "PipelineServices",
    "SiteSpec",
    "SourceClients",
    "Version",
    "VersionConstraint",
    "build_plan",
    "classify_corpus",
    "derive_slug",
    "emit_bundle",
    "extract_version_from_poc",
    "fetch_component",
    "find_core_image",
    "generate",
    "load_corpus",
    "parse_poc_header",
    "parse_title",
    "parse_version_expr",
    "resolve_versions_from_cve",
    "run_batch",
    "summarize",
]
