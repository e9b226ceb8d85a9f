"""Generate one reproducible environment per exploit record.

The control flow: classify the title; resolve the vulnerable version
(title first, then PoC, then the CPE dictionary when CVE ids exist);
records with no version and no attached application stop early. Core
exploits resolve a base image for their version; plugin and theme
exploits fetch the extension payload through the ordered source
fallback, straight into the bundle's staging directory. Whatever
resolves is emitted as a container bundle, which is renamed into place
whole. In bootstrap mode the same call then builds the bundle's image,
starts its stack, polls it ready and configures it, all through the
injected executor and readiness client; any failure there is
error-during-setup.
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
    "generate",
    "resolve_constraint",
    "concrete_version",
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


@dataclass(frozen=True)
class GenerationOutcome:
    """What happened to one record, success or failure; reporting.render_row
    writes it as an outcome row."""

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
            raise ValueError("failures carry a reason, successes do not")

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


def concrete_version(constraint: VersionConstraint | None) -> Version | None:
    """Choose the checkout version a constraint points at.

    Exact and inclusive bounds name a vulnerable version directly; a set
    takes its highest member. An exclusive bound names a version that is
    not itself vulnerable, so no concrete version is returned and the SVN
    path falls back to trunk.
    """
    if constraint is None:
        return None
    if constraint.kind is ConstraintKind.UPPER_BOUND_EXCLUSIVE:
        return None
    if constraint.kind is ConstraintKind.SET:
        return max(constraint.versions)
    return constraint.versions[0]


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


def generate(
    record: ExploitRecord,
    services: PipelineServices,
    mode: GenerationMode = GenerationMode.EMIT_ONLY,
) -> GenerationOutcome:
    """Run the full per-record flow and encode the result as an outcome.

    All expected failures land in the outcome's reason; the call itself
    does not raise for them. Until the bundle is renamed into place, nothing
    is written outside the staging directory iac.stage_bundle prepares,
    which a failed fetch or emission removes again.
    """
    start = services.clock.monotonic()

    def failure(reason: FailureReason, unused_archive: str | None = None) -> GenerationOutcome:
        logger.info("exploit %s failed: %s", record.edb_id, reason.value)
        return GenerationOutcome(
            edb_id=record.edb_id,
            status=OutcomeStatus.FAILURE,
            elapsed=services.clock.monotonic() - start,
            reason=reason,
            unused_app_archive=unused_archive,
        )

    parsed = parse_title(record.title)
    if parsed.category is ExploitCategory.UNCATEGORIZED:
        return failure(FailureReason.UNPARSABLE_TITLE)

    bundle_dir = services.out_dir / str(record.edb_id)

    constraint = resolve_constraint(record, parsed, services.cpe)
    has_archive = record.app_archive is not None and record.app_archive.is_file()
    archive_name = str(record.app_archive) if has_archive else None

    if parsed.category is ExploitCategory.CORE:
        # The version names the core itself; an attached archive cannot
        # substitute for it and is recorded as unused either way.
        if constraint is None:
            return failure(FailureReason.UNKNOWN_VERSION, unused_archive=archive_name)
        try:
            image = find_core_image(constraint, services.registry)
        except NoImageError as exc:
            logger.info("no image for exploit %s: %s", record.edb_id, exc)
            return failure(FailureReason.NO_IMAGE, unused_archive=archive_name)
        slugs: tuple[str, ...] = ()
        unused_archive = archive_name
    else:
        if constraint is None and not has_archive:
            return failure(FailureReason.NO_VULNERABLE_APPLICATION)
        try:
            image = find_latest_image(services.registry)
        except NoImageError as exc:
            logger.info("no image for exploit %s: %s", record.edb_id, exc)
            return failure(FailureReason.NO_IMAGE)
        try:
            slugs = (derive_slug(parsed.product or ""),)
        except EmptySlugError:
            return failure(FailureReason.NO_VULNERABLE_APPLICATION)
        unused_archive = None

    try:
        dests = stage_bundle(bundle_dir, slugs)
    except OSError as exc:
        logger.error("staging directory for exploit %s unusable: %s", record.edb_id, exc)
        return failure(FailureReason.ERROR_DURING_SETUP, unused_archive=unused_archive)
    components = []
    for slug, dest in zip(slugs, dests):
        try:
            components.append(fetch_component(
                kind=_CATEGORY_TO_KIND[parsed.category],
                slug=slug,
                version=concrete_version(constraint),
                record=record,
                sources=services.sources,
                dest=dest,
            ))
        except (NoVulnerableApplicationError, FetchError) as exc:
            discard_staging(bundle_dir)
            if isinstance(exc, NoVulnerableApplicationError):
                return failure(FailureReason.NO_VULNERABLE_APPLICATION)
            logger.warning("fetch for exploit %s broke: %s", record.edb_id, exc)
            return failure(FailureReason.FETCH_FAILURE)

    plan = build_plan(
        parsed,
        image,
        components,
        services.config,
        edb_id=record.edb_id,
        title=record.title,
        unused_app_archive=unused_archive,
    )
    try:
        manifest = emit_bundle(plan, bundle_dir, generated_at=services.clock.now())
    except BundleWriteError as exc:
        logger.error("bundle for exploit %s not written: %s", record.edb_id, exc)
        return failure(FailureReason.ERROR_DURING_SETUP, unused_archive=unused_archive)

    if mode is GenerationMode.EMIT_AND_BOOTSTRAP:
        if services.readiness is None or services.executor is None:
            raise ValueError("bootstrap mode needs a readiness client and an executor")
        try:
            bring_up(plan, bundle_dir, services.executor, services.readiness,
                     services.clock, services.config)
        except (BootstrapTimeoutError, SetupStepFailedError) as exc:
            logger.warning("bootstrap of exploit %s failed: %s", record.edb_id, exc)
            return failure(FailureReason.ERROR_DURING_SETUP, unused_archive=unused_archive)

    return GenerationOutcome(
        edb_id=record.edb_id,
        status=OutcomeStatus.SUCCESS,
        elapsed=services.clock.monotonic() - start,
        plan=plan,
        manifest=manifest,
        image=str(plan.base_image),
        sources=tuple(c.source.kind.value for c in plan.components),
        unused_app_archive=unused_archive,
    )
