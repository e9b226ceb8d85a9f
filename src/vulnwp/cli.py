"""Command line front end.

Subcommands:
  generate --edb-id N   build one environment bundle
  batch                 build every record in the corpus, write outcomes
  stats OUTCOMES_FILE   re-summarize a previous batch without rerunning

Global flags pick the corpus, the fixture directory (offline clients),
the output directory, the mode, and JSON output. A batch runs its
records one after another on one set of clients, so the registry tag
list and each CVE are fetched once per run. With `--mode bootstrap`,
each generation also builds, starts, probes and configures its stack
through the docker CLI in the same pass; a runtime that is missing or
down ends as an error-during-setup outcome. Exit codes: 0 success, 2
the requested generation failed, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .bootstrap import DockerExecutor, HttpReadinessClient
from .config import GeneratorConfig
from .corpus import Corpus, load_corpus
from .errors import VulnwpError
from .pipeline import GenerationMode, PipelineServices, generate
from .reporting import (
    read_outcomes,
    render_json,
    render_text,
    run_batch,
    summarize,
    write_outcomes,
)
from .resolvers import (
    DiskSvnMirror,
    DockerHubTagIndex,
    FixtureLinkDownloader,
    FixtureTagIndex,
    HttpLinkDownloader,
    HttpSvnMirror,
    SourceClients,
)
from .versions import FixtureCpeDictionary, NvdCpeDictionary

logger = logging.getLogger(__name__)

USAGE_ERROR = 1
GENERATION_FAILED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for failed
    generations, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="vulnwp", description="Rebuild vulnerable WordPress stacks from exploit records.")
    parser.add_argument("--corpus", type=Path, help="corpus directory (files_exploits.csv plus PoC tree)")
    parser.add_argument("--fixtures", type=Path, help="fixture directory for offline registry/CPE/SVN/link clients")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory for bundles")
    parser.add_argument("--mode", choices=[m.value for m in GenerationMode], default="emit",
                        help="emit bundles only, or also boot and configure them")
    parser.add_argument("--json", action="store_true", help="print machine readable output")
    parser.add_argument("--config", type=Path, help="JSON file overriding generator defaults")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")

    commands = parser.add_subparsers(dest="command", required=True)
    cmd_generate = commands.add_parser("generate", help="generate one environment")
    cmd_generate.add_argument("--edb-id", type=int, required=True, help="exploit id to generate")
    commands.add_parser("batch", help="generate every record in the corpus")
    cmd_stats = commands.add_parser("stats", help="summarize a saved outcomes file")
    cmd_stats.add_argument("outcomes_file", type=Path)
    return parser


def _load_corpus_arg(args) -> Corpus:
    if args.corpus is None:
        raise VulnwpError("--corpus is required for this command")
    index = args.corpus / "files_exploits.csv"
    return load_corpus(index, args.corpus)


def _build_services(args) -> PipelineServices:
    config = GeneratorConfig.from_json(args.config) if args.config else GeneratorConfig()
    if args.fixtures is not None:
        fixtures = args.fixtures
        registry_file = fixtures / "registry_tags.json"
        if not registry_file.is_file():
            raise VulnwpError(f"fixture registry listing missing: {registry_file}")
        registry = FixtureTagIndex.from_json(registry_file)
        cpe_file = fixtures / "cpe_dictionary.json"
        cpe = FixtureCpeDictionary(cpe_file) if cpe_file.is_file() else None
        svn_root = fixtures / "svn"
        svn = DiskSvnMirror(svn_root / "plugins", svn_root / "themes") if svn_root.is_dir() else None
        links_file = fixtures / "links.json"
        link = None
        if links_file.is_file():
            mapping = json.loads(links_file.read_text(encoding="utf-8"))
            link = FixtureLinkDownloader({url: fixtures / rel for url, rel in mapping.items()})
        sources = SourceClients(svn=svn, link=link)
    else:
        registry = DockerHubTagIndex()
        cpe = NvdCpeDictionary()
        sources = SourceClients(svn=HttpSvnMirror(), link=HttpLinkDownloader())

    mode = GenerationMode(args.mode)
    readiness = executor = None
    if mode is GenerationMode.EMIT_AND_BOOTSTRAP:
        readiness = HttpReadinessClient()
        executor = DockerExecutor()

    return PipelineServices(
        registry=registry,
        sources=sources,
        out_dir=args.out,
        cpe=cpe,
        config=config,
        readiness=readiness,
        executor=executor,
    )


def _cmd_generate(args) -> int:
    corpus = _load_corpus_arg(args)
    record = corpus.records.get(args.edb_id)
    if record is None:
        raise VulnwpError(f"exploit id {args.edb_id} is not in the corpus")
    outcome = generate(record, _build_services(args), GenerationMode(args.mode))
    if args.json:
        print(json.dumps(outcome.to_json_dict(), indent=2, sort_keys=True))
    elif outcome.is_success:
        print(f"{outcome.edb_id}: generated into {outcome.manifest.bundle_dir} (image {outcome.image})")
    else:
        print(f"{outcome.edb_id}: failed ({outcome.reason.value})")
    return 0 if outcome.is_success else GENERATION_FAILED


def _cmd_batch(args) -> int:
    corpus = _load_corpus_arg(args)
    mode = GenerationMode(args.mode)
    outcomes = run_batch(corpus, _build_services(args), mode)
    args.out.mkdir(parents=True, exist_ok=True)
    outcomes_path = args.out / "outcomes.ndjson"
    write_outcomes(outcomes, outcomes_path)
    report = summarize(outcomes, corpus)
    print(render_json(report) if args.json else render_text(report), end="")
    logger.info("outcomes written to %s", outcomes_path)
    return 0


def _cmd_stats(args) -> int:
    corpus = _load_corpus_arg(args)
    outcomes = read_outcomes(args.outcomes_file)
    report = summarize(outcomes, corpus)
    print(render_json(report) if args.json else render_text(report), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {"generate": _cmd_generate, "batch": _cmd_batch, "stats": _cmd_stats}
    try:
        return handlers[args.command](args)
    except VulnwpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
