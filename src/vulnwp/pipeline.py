"""Generate one reproducible environment per exploit record.

Each record goes through two steps. resolve decides, calling only the
registry and CPE clients and writing nothing: it classifies the title,
resolves the vulnerable version (title first, then PoC, then the CPE
dictionary when CVE ids exist), stops records with no version and no
attached application, and picks the base image and, for a plugin or
theme, the payload's slug and checkout version. generate then stages the
bundle, fetches the extension payload through the ordered source
fallback straight into the staging directory, and emits the bundle,
which is renamed into place whole. In bootstrap mode the same call then
builds the bundle's image, starts its stack, polls it ready and
configures it, all through the injected executor and readiness client;
any failure there is error-during-setup.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .bootstrap import Clock, CommandExecutor, ReadinessClient, SystemClock, bring_up
from .config import GeneratorConfig
from .corpus import ExploitRecord
from .errors import (
    BootstrapTimeoutError,
    BundleWriteError,
    DictionaryUnavailableError,
    EmptySlugError,
    FetchError,
    NoImageError,
    NoVulnerableApplicationError,
    SetupStepFailedError,
    UnknownCveError,
)
from .iac import (
    BundleManifest,
    EnvironmentPlan,
    build_plan,
    discard_staging,
    emit_bundle,
    stage_bundle,
)
from .resolvers import (
    ComponentKind,
    ImageRef,
    SourceClients,
    TagIndex,
    derive_slug,
    fetch_component,
    find_core_image,
    find_latest_image,
)
from .titles import ExploitCategory, ParsedTitle, parse_title
from .versions import (
    ConstraintKind,
    CpeDictionary,
    Version,
    VersionConstraint,
    extract_version_from_poc,
    parse_version_expr,
    resolve_versions_from_cve,
)

logger = logging.getLogger(__name__)

__all__ = [
    "FailureReason",
    "OutcomeStatus",
    "GenerationMode",
    "GenerationOutcome",
    "PipelineServices",
    "Resolution",
    "generate",
    "resolve",
]

_CATEGORY_TO_KIND = {
    ExploitCategory.PLUGIN: ComponentKind.PLUGIN,
    ExploitCategory.THEME: ComponentKind.THEME,
}


class FailureReason(Enum):
    UNPARSABLE_TITLE = "unparsable-title"
    NO_VULNERABLE_APPLICATION = "no-vulnerable-application"
    NO_IMAGE = "no-image"
    ERROR_DURING_SETUP = "error-during-setup"
    UNKNOWN_VERSION = "unknown-version"
    FETCH_FAILURE = "fetch-failure"


class OutcomeStatus(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class GenerationMode(Enum):
    EMIT_ONLY = "emit"
    EMIT_AND_BOOTSTRAP = "bootstrap"


_REASON_RULE = "failures carry a reason, successes do not"


@dataclass(frozen=True)
class GenerationOutcome:
    """What happened to one record, success or failure; reporting.render_row
    writes it as an outcome row.

    reporting.read_outcomes builds the outcomes it reads back through the
    private constructor _filled, which checks what __post_init__ checks and
    puts the fields straight into the instance's dict, skipping the nine
    object.__setattr__ calls of the frozen initializer. Such an instance is
    equal, hashes and prints as one the constructor builds, and refuses
    assignment the same way, but on Python 3.11 it carries its own dict
    (about 64 B more). The pipeline keeps the constructor: failure outcomes
    built through _filled made the benchmark's triage stats_s worse in all
    4 pairs run (+5 to +8 %), probably because a dict per outcome makes
    the row writer's attribute reads and the collector's passes dearer
    (not isolated).
    """

    edb_id: int
    status: OutcomeStatus
    elapsed: float
    reason: FailureReason | None = None
    plan: EnvironmentPlan | None = None
    manifest: BundleManifest | None = None
    image: str | None = None
    sources: tuple[str, ...] = ()
    unused_app_archive: str | None = None

    def __post_init__(self) -> None:
        if (self.status is OutcomeStatus.FAILURE) != (self.reason is not None):
            raise ValueError(_REASON_RULE)

    @classmethod
    def _filled(
        cls,
        edb_id: int,
        status: OutcomeStatus,
        elapsed: float,
        reason: FailureReason | None,
        manifest: BundleManifest | None,
        image: str | None,
        sources: tuple[str, ...],
        unused_app_archive: str | None,
    ) -> GenerationOutcome:
        """The outcome cls(edb_id, status, elapsed, reason, None, manifest,
        image, sources, unused_app_archive) would be, with no plan; raises
        the same ValueError for a failure without a reason or a success
        with one."""
        if (status is OutcomeStatus.FAILURE) != (reason is not None):
            raise ValueError(_REASON_RULE)
        outcome = object.__new__(cls)
        fields = outcome.__dict__
        fields["edb_id"] = edb_id
        fields["status"] = status
        fields["elapsed"] = elapsed
        fields["reason"] = reason
        fields["plan"] = None
        fields["manifest"] = manifest
        fields["image"] = image
        fields["sources"] = sources
        fields["unused_app_archive"] = unused_app_archive
        return outcome

    @property
    def is_success(self) -> bool:
        return self.status is OutcomeStatus.SUCCESS


@dataclass
class PipelineServices:
    """Clients, directories, and configuration one run operates with.

    work_dir is not read: payloads are fetched into each bundle's staging
    directory under out_dir. It is kept only for callers that still pass it.
    """

    registry: TagIndex
    sources: SourceClients
    out_dir: Path
    work_dir: Path | None = None
    cpe: CpeDictionary | None = None
    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    clock: Clock = field(default_factory=SystemClock)
    readiness: ReadinessClient | None = None
    executor: CommandExecutor | None = None


def resolve_constraint(
    record: ExploitRecord,
    parsed: ParsedTitle,
    cpe: CpeDictionary | None,
) -> VersionConstraint | None:
    """Resolve the vulnerable version with the documented precedence.

    The title wins, then the PoC (header before body scan), then the CPE
    dictionary, which is consulted only when the record carries CVE ids
    and both earlier sources produced nothing. Dictionary trouble and
    unknown CVEs downgrade to "no version from this source".
    """
    if parsed.version_expr is not None:
        return parse_version_expr(parsed.version_expr)

    from_poc = extract_version_from_poc(record)
    if from_poc is not None:
        return from_poc

    if not record.cve_ids or cpe is None:
        return None

    if parsed.category is ExploitCategory.CORE:
        wanted_product = "wordpress"
    else:
        try:
            wanted_product = derive_slug(parsed.product or "")
        except EmptySlugError:
            return None

    versions: list[Version] = []
    for cve_id in record.cve_ids:
        try:
            entries = resolve_versions_from_cve(cve_id, cpe)
        except (DictionaryUnavailableError, UnknownCveError) as exc:
            logger.info("CPE lookup for %s gave nothing: %s", cve_id, exc)
            continue
        for entry in entries:
            if entry.product == wanted_product and entry.version not in versions:
                versions.append(entry.version)
    if not versions:
        return None
    return VersionConstraint.version_set(versions)


@dataclass(frozen=True)
class Resolution:
    """What resolve decided for one record: the reason it stops, or its base
    image and, for a plugin or theme, the payload's kind, slug and checkout
    version (None means trunk). A core record's attached archive is
    unused_app_archive either way."""

    reason: FailureReason | None = None
    image: ImageRef | None = None
    kind: ComponentKind | None = None
    slug: str | None = None
    version: Version | None = None
    unused_app_archive: str | None = None


# Resolutions are frozen, so every stop that names no unused archive
# returns its reason's one shared instance.
_STOPS = {reason: Resolution(reason) for reason in FailureReason}


def _stop(reason: FailureReason, unused_app_archive: str | None = None) -> Resolution:
    if unused_app_archive is None:
        return _STOPS[reason]
    return Resolution(reason, unused_app_archive=unused_app_archive)


def resolve(record: ExploitRecord, services: PipelineServices) -> Resolution:
    """Decide what a record's environment needs, or why it stops, calling
    only the registry and CPE clients; nothing is written or fetched.

    No version stops a core record, and an extension record without an
    attached archive. The checkout version is an exact or inclusive
    version, a set's highest member, or None for "< v", which names no
    vulnerable version.
    """
    parsed = parse_title(record.title)
    if parsed.category is ExploitCategory.UNCATEGORIZED:
        return _stop(FailureReason.UNPARSABLE_TITLE)
    kind = _CATEGORY_TO_KIND.get(parsed.category)  # None for core

    constraint = resolve_constraint(record, parsed, services.cpe)
    has_archive = record.app_archive is not None
    # The version names the core itself; an attached archive cannot
    # substitute for it and is recorded as unused either way.
    unused = str(record.app_archive) if kind is None and has_archive else None

    if constraint is None and (kind is None or not has_archive):
        reason = FailureReason.UNKNOWN_VERSION if kind is None else FailureReason.NO_VULNERABLE_APPLICATION
        return _stop(reason, unused)
    try:
        image = (find_core_image(constraint, services.registry) if kind is None
                 else find_latest_image(services.registry))
    except NoImageError as exc:
        logger.info("no image for exploit %s: %s", record.edb_id, exc)
        return _stop(FailureReason.NO_IMAGE, unused)
    if kind is None:
        return Resolution(image=image, unused_app_archive=unused)

    try:
        slug = derive_slug(parsed.product or "")
    except EmptySlugError:
        return _stop(FailureReason.NO_VULNERABLE_APPLICATION)
    trunk = constraint is None or constraint.kind is ConstraintKind.UPPER_BOUND_EXCLUSIVE
    return Resolution(image=image, kind=kind, slug=slug, version=None if trunk else max(constraint.versions))


def generate(
    record: ExploitRecord,
    services: PipelineServices,
    mode: GenerationMode = GenerationMode.EMIT_ONLY,
) -> GenerationOutcome:
    """Resolve a record, then stage, fetch, emit and, in bootstrap mode,
    bring up its environment; encode the result as an outcome.

    All expected failures land in the outcome's reason; the call itself
    does not raise for them. It raises ValueError, before anything else,
    when bootstrap mode lacks a readiness client or an executor. Until the
    bundle is renamed into place, nothing is written outside the staging
    directory iac.stage_bundle prepares, which a failed fetch or emission
    removes again.
    """
    bootstrap = mode is GenerationMode.EMIT_AND_BOOTSTRAP
    if bootstrap and (services.readiness is None or services.executor is None):
        raise ValueError("bootstrap mode needs a readiness client and an executor")
    start = services.clock.monotonic()
    resolution = resolve(record, services)

    def failure(reason: FailureReason) -> GenerationOutcome:
        logger.info("exploit %s failed: %s", record.edb_id, reason.value)
        return GenerationOutcome(
            edb_id=record.edb_id,
            status=OutcomeStatus.FAILURE,
            elapsed=services.clock.monotonic() - start,
            reason=reason,
            unused_app_archive=resolution.unused_app_archive,
        )

    if resolution.reason is not None:
        return failure(resolution.reason)

    bundle_dir = services.out_dir / str(record.edb_id)
    slug = resolution.slug
    try:
        dests = stage_bundle(bundle_dir, () if slug is None else (slug,))
    except OSError as exc:
        logger.error("staging directory for exploit %s unusable: %s", record.edb_id, exc)
        return failure(FailureReason.ERROR_DURING_SETUP)
    components = ()
    if slug is not None:
        try:
            components = (fetch_component(kind=resolution.kind, slug=slug, version=resolution.version,
                                          record=record, sources=services.sources, dest=dests[0]),)
        except (NoVulnerableApplicationError, FetchError) as exc:
            discard_staging(bundle_dir)
            if isinstance(exc, NoVulnerableApplicationError):
                return failure(FailureReason.NO_VULNERABLE_APPLICATION)
            logger.warning("fetch for exploit %s broke: %s", record.edb_id, exc)
            return failure(FailureReason.FETCH_FAILURE)

    plan = build_plan(resolution.image, components, services.config, edb_id=record.edb_id,
                      title=record.title, unused_app_archive=resolution.unused_app_archive)
    try:
        manifest = emit_bundle(plan, bundle_dir, generated_at=services.clock.now())
    except BundleWriteError as exc:
        logger.error("bundle for exploit %s not written: %s", record.edb_id, exc)
        return failure(FailureReason.ERROR_DURING_SETUP)

    if bootstrap:
        try:
            bring_up(plan, bundle_dir, services.executor, services.readiness,
                     services.clock, services.config)
        except (BootstrapTimeoutError, SetupStepFailedError) as exc:
            logger.warning("bootstrap of exploit %s failed: %s", record.edb_id, exc)
            return failure(FailureReason.ERROR_DURING_SETUP)

    return GenerationOutcome(
        edb_id=record.edb_id,
        status=OutcomeStatus.SUCCESS,
        elapsed=services.clock.monotonic() - start,
        plan=plan,
        manifest=manifest,
        image=str(plan.base_image),
        sources=tuple(c.source.kind.value for c in plan.components),
        unused_app_archive=resolution.unused_app_archive,
    )
