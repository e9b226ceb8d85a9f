"""vulnwp: rebuild vulnerable WordPress stacks from public exploit records.

The pipeline parses an exploit record, resolves the vulnerable core
version or extension payload, and emits a reproducible container bundle
(build file, compose manifest, setup script, provenance). Batch mode
produces coverage statistics over a whole corpus.

The `vulnwp` command (vulnwp.cli) is the interface. Library callers
import each name from the module that defines it, for example
`from vulnwp.pipeline import generate`; the package re-exports nothing.
"""
