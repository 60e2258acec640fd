"""sylk — a Ray-Data-native RFC 5424 log pipeline engine.

Brand-new engine with the query/data-processing capabilities of the
reference crate ``syslog_rfc5424`` (``/root/reference``), re-expressed as
``ray.data.Dataset`` pipelines: vectorized parse -> task enrich ->
range-partitioned route -> groupby aggregate, plus training-data operators
(dedup, similarity search, text analysis) over Parquet tables.

Layout:
  functions/  scalar semantics: the faithful parser oracle, enum lookups,
              canonical JSON, SD accessors
  stages/     map_batches stages: parse, enrich, route, aggregate, text,
              dedup, similarity, multimodal
  sources/    transcript synthesizer + conformance corpus + readers
  pipelines/  end-to-end composed pipelines (flagship parse->aggregate)
  state/      checkpoint/resume manifest
"""

__version__ = "0.1.0"


def _settle_fsspec_http() -> None:
    """Pre-settle ``fsspec.implementations.http`` so concurrent Dataset
    planning is thread-safe.

    Ray's path resolution try-imports that module on every read/write
    plan; without ``aiohttp`` the module exec fails and Python removes
    it from ``sys.modules``, so two driver threads planning at once race
    — one sees a half-initialized module and raises a bare ImportError
    Ray doesn't catch.  Registering a finished stub (HTTPFileSystem is
    unusable without aiohttp anyway) makes the import deterministic."""
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel only; nothing instantiates it
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
    except ImportError:
        pass  # partially-imported by a concurrent thread; leave as-is


_settle_fsspec_http()
