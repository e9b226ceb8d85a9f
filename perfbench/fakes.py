"""In-memory stand-ins for the network and counting wrappers for the injected clients.

The fake sessions answer the same requests the live hub and NVD clients
send, from the generated fixture files, and count every request. The
counting wrappers delegate to a real client and count calls, so the
benchmark reports client traffic with no network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from vulnwp.resolvers import ComponentKind, LinkDownloader, SvnMirror, TagIndex
from vulnwp.versions import CpeDictionary, Version


@dataclass
class Counters:
    """Client calls made since the last reset."""

    registry_requests: int = 0
    nvd_requests: int = 0
    list_tags_calls: int = 0
    tags_listed: int = 0
    cpe_lookups: int = 0
    svn_exports: int = 0
    svn_misses: int = 0
    link_fetches: int = 0

    def reset(self) -> None:
        for item in fields(self):
            setattr(self, item.name, 0)


class FakeResponse:
    """A 200 response whose json() decodes the body on each call, as requests does."""

    status_code = 200

    def __init__(self, content: bytes) -> None:
        self.content = content

    def raise_for_status(self) -> None:
        pass

    def json(self) -> dict:
        return json.loads(self.content)


class FakeHubSession:
    """Answers the hub's paginated tag listing (`results` plus a `next` URL)."""

    def __init__(self, tags: list[str], counters: Counters) -> None:
        self._tags = list(tags)
        self._counters = counters
        self._pages: dict[tuple[str, int, int], bytes] = {}  # encoded once, like a server-side cache

    def get(self, url: str, params: dict | None = None, timeout: float | None = None) -> FakeResponse:
        self._counters.registry_requests += 1
        query = {k: v[0] for k, v in parse_qs(urlsplit(url).query).items()}
        query.update({k: str(v) for k, v in (params or {}).items()})
        base = url.split("?", 1)[0]
        key = (base, int(query.get("page", 1)), int(query.get("page_size", 10)))
        if key not in self._pages:
            self._pages[key] = self._page(*key)
        return FakeResponse(self._pages[key])

    def _page(self, base: str, page: int, size: int) -> bytes:
        results = [{"name": tag} for tag in self._tags[(page - 1) * size: page * size]]
        more = page * size < len(self._tags)
        return json.dumps({
            "count": len(self._tags),
            "results": results,
            "next": f"{base}?page={page + 1}&page_size={size}" if more else None,
        }).encode("utf-8")


class FakeNvdSession:
    """Answers NVD CVE API lookups from a CVE id to CPE strings map."""

    def __init__(self, entries: dict[str, list[str]], counters: Counters) -> None:
        self._entries = {k.upper(): list(v) for k, v in entries.items()}
        self._counters = counters

    def get(self, url: str, params: dict | None = None, timeout: float | None = None) -> FakeResponse:
        self._counters.nvd_requests += 1
        cve = (params or {}).get("cveId", "").upper()
        if cve not in self._entries:
            return FakeResponse(b'{"totalResults": 0, "vulnerabilities": []}')
        matches = [{"vulnerable": True, "criteria": c} for c in self._entries[cve]]
        return FakeResponse(json.dumps({
            "totalResults": 1,
            "vulnerabilities": [{"cve": {"id": cve, "configurations": [{"nodes": [{"cpeMatch": matches}]}]}}],
        }).encode("utf-8"))


class CountingTagIndex(TagIndex):
    def __init__(self, inner: TagIndex, counters: Counters) -> None:
        self._inner = inner
        self._counters = counters
        self.repository = inner.repository

    def list_tags(self) -> list[str]:
        tags = self._inner.list_tags()
        self._counters.list_tags_calls += 1
        self._counters.tags_listed += len(tags)
        return tags


class CountingSvnMirror(SvnMirror):
    def __init__(self, inner: SvnMirror, counters: Counters) -> None:
        self._inner = inner
        self._counters = counters

    def export(self, kind: ComponentKind, slug: str, version: Version | None, dest: Path) -> str | None:
        locator = self._inner.export(kind, slug, version, dest)
        self._counters.svn_exports += 1
        if locator is None:
            self._counters.svn_misses += 1
        return locator


class CountingLinkDownloader(LinkDownloader):
    def __init__(self, inner: LinkDownloader, counters: Counters) -> None:
        self._inner = inner
        self._counters = counters

    def fetch(self, url: str, dest: Path) -> bool:
        self._counters.link_fetches += 1
        return self._inner.fetch(url, dest)


class CountingCpeDictionary(CpeDictionary):
    def __init__(self, inner: CpeDictionary, counters: Counters) -> None:
        self._inner = inner
        self._counters = counters

    def cpes_for(self, cve_id: str) -> list[str]:
        self._counters.cpe_lookups += 1
        return self._inner.cpes_for(cve_id)
