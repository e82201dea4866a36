"""The content-addressed analysis result cache and its compaction."""

import json
import os
import subprocess
import sys

import repro.cli
from repro.cli import main
from repro.solve import (
    ANALYSIS_CACHE_BASENAME,
    AnalysisResultCache,
    analysis_cache_files,
    compact_analysis_cache_dir,
    compact_analysis_cache_file,
)

FLOWS = [
    {
        "source_class": "Src",
        "source_method": "get",
        "sink_class": "Snk",
        "sink_method": "put",
        "variable": "x",
    }
]


def test_put_then_get_round_trips(tmp_path):
    cache = AnalysisResultCache(str(tmp_path), spec_key="spec-a")
    assert cache.get("d1") is None
    cache.put("d1", FLOWS)
    cache.close()
    assert cache.get("d1") == FLOWS
    assert "d1" in cache and len(cache) == 1
    # a fresh instance reloads from disk
    reloaded = AnalysisResultCache(str(tmp_path), spec_key="spec-a")
    assert reloaded.get("d1") == FLOWS


def _put_once(directory, spec_key, digest, flows, worker=None):
    """One entry put by a cache that is closed right after."""
    cache = AnalysisResultCache(directory, spec_key=spec_key, worker=worker)
    cache.put(digest, flows)
    cache.close()


def test_entries_are_keyed_by_spec(tmp_path):
    _put_once(str(tmp_path), "spec-a", "d1", FLOWS)
    other = AnalysisResultCache(str(tmp_path), spec_key="spec-b")
    assert other.get("d1") is None


def test_worker_shards_share_one_directory(tmp_path):
    left = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0")
    right = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w1")
    left.put("d1", FLOWS)
    right.put("d2", [])
    left.close()
    right.close()
    assert sorted(os.path.basename(p) for p in analysis_cache_files(str(tmp_path))) == [
        f"{ANALYSIS_CACHE_BASENAME}-w0.jsonl",
        f"{ANALYSIS_CACHE_BASENAME}-w1.jsonl",
    ]
    # loading unions every shard, so a new worker sees both entries
    union = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w2")
    assert union.get("d1") == FLOWS and union.get("d2") == []


def test_torn_and_malformed_lines_are_skipped(tmp_path):
    cache = AnalysisResultCache(str(tmp_path), spec_key="s")
    cache.put("d1", FLOWS)
    cache.close()
    with open(cache.path, "ab") as handle:
        handle.write(b"{not json\n")
        handle.write(b"[1, 2]\n")
        handle.write(b'{"format": "repro.solve.cache/1", "spec": "s", "digest": "\xff"}\n')
        # a foreign format is not an answer, whatever keys it has
        other = {"format": "other", "spec": "s", "digest": "d1", "flows": []}
        handle.write(json.dumps(other).encode("utf-8") + b"\n")
        handle.write(b'{"format": "repro.solve.cache/1", "spec": "s", "digest": "d2"')  # torn
    survivor = AnalysisResultCache(str(tmp_path), spec_key="s")
    assert survivor.get("d1") == FLOWS
    assert len(survivor) == 1


def test_compaction_drops_superseded_and_malformed_lines(tmp_path):
    cache = AnalysisResultCache(str(tmp_path), spec_key="s")
    cache.put("d1", [])
    cache._memory.pop("d1")  # force a rewrite of the same digest
    cache.put("d1", FLOWS)
    cache.put("d2", [])
    cache.close()
    with open(cache.path, "ab") as handle:
        handle.write(b"garbage\n")
        handle.write(b'{"spec": ["x"], "digest": "d3", "flows": []}\n')  # unhashable key
        handle.write(b'{"spec": "s", "digest": "\xff", "flows": []}\n')  # not UTF-8
    stats = compact_analysis_cache_file(cache.path)
    assert stats.lines_before == 6 and stats.lines_after == 2
    assert stats.superseded_dropped == 1 and stats.malformed_dropped == 3
    assert AnalysisResultCache(str(tmp_path), spec_key="s").get("d1") == FLOWS


def test_compact_dir_visits_every_shard(tmp_path):
    _put_once(str(tmp_path), "s", "d1", FLOWS, worker="w0")
    _put_once(str(tmp_path), "s", "d2", [], worker="w1")
    stats = compact_analysis_cache_dir(str(tmp_path))
    assert len(stats) == 2
    assert all(s.lines_after == 1 for s in stats)


def test_cli_compact_cache_accepts_analysis_cache_dir(tmp_path, capsys):
    cache = AnalysisResultCache(str(tmp_path), spec_key="s")
    cache.put("d1", [])
    cache._memory.pop("d1")
    cache.put("d1", FLOWS)
    cache.close()
    assert main(["compact-cache", "--analysis-cache", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "CacheCompacted" in err or "compact" in err.lower()
    assert AnalysisResultCache(str(tmp_path), spec_key="s").get("d1") == FLOWS


def test_cli_compact_cache_requires_a_directory(capsys):
    assert main(["compact-cache"]) == 2
    assert "analysis-cache" in capsys.readouterr().err


def test_warmth_survives_a_restart_under_another_hash_seed(tmp_path):
    """Two processes rarely share a hash seed; the spec key must not depend on it."""
    store_dir = str(tmp_path / "specs")
    cache_dir = str(tmp_path / "analysis-cache")
    assert main(["plane", "seed", "--store", store_dir]) == 0  # ground-truth spec
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.cli.__file__)))

    def analyze(hash_seed):
        out = str(tmp_path / f"report-{hash_seed}.json")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", "--store", store_dir,
             "--analysis-cache", cache_dir,
             "--count", "3", "--max-statements", "40", "--out", out],
            env=env, check=True, capture_output=True, timeout=120,
        )
        with open(out, encoding="utf-8") as handle:
            return [report["timing"]["solve_outcome"] for report in json.load(handle)["reports"]]

    assert "hit" not in analyze(1)
    assert analyze(2) == ["hit"] * 3


# ------------------------------------------------------------ handle lifecycle
def test_a_fresh_cache_sees_every_entry_a_live_one_has_put(tmp_path):
    live = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0")
    for index in range(5):
        live.put(f"d{index}", FLOWS if index % 2 else [])
    fresh = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w1")
    assert {f"d{index}" for index in range(5)} <= set(fresh._memory)
    assert fresh.get("d1") == FLOWS and fresh.get("d2") == []
    live.close()


def test_the_shard_is_opened_once(tmp_path, monkeypatch):
    import repro.solve.cache as cache_module

    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
    cache = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0")
    assert opened == []  # a cache that never puts never opens its shard
    for index in range(4):
        cache.put(f"d{index}", FLOWS)
    assert opened == [cache.path]
    cache.close()


def test_a_put_after_close_reopens_the_shard(tmp_path):
    cache = AnalysisResultCache(str(tmp_path), spec_key="s")
    cache.put("d1", FLOWS)
    cache.close()
    cache.close()  # closing twice is harmless
    cache.put("d2", [])
    cache.close()
    reloaded = AnalysisResultCache(str(tmp_path), spec_key="s")
    assert reloaded.get("d1") == FLOWS and reloaded.get("d2") == []


def test_two_caches_on_one_shard_leave_only_whole_lines(tmp_path):
    # lines far larger than an I/O buffer, interleaved with small ones
    big = [dict(FLOWS[0], variable=f"v{index}") for index in range(2_000)]
    left = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0")
    right = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0")
    assert left.path == right.path
    digests = []
    for index in range(20):
        for side, cache in (("l", left), ("r", right)):
            digest = f"{side}{index}"
            cache.put(digest, big if index % 3 == 0 else FLOWS)
            digests.append(digest)
    left.close()
    right.close()
    with open(left.path, "rb") as handle:
        lines = handle.read().split(b"\n")
    assert lines[-1] == b""
    entries = [json.loads(line) for line in lines[:-1]]
    assert [entry["digest"] for entry in entries] == digests
    assert len(lines[0]) > 64 * 1024


def test_closing_an_analyzer_closes_its_cache(tmp_path, library_program):
    from repro.diff.families import generate_scenario
    from repro.lang.program import Program
    from repro.service.analyzer import ClientAnalyzer

    analyzer = ClientAnalyzer(
        Program(), library_program=library_program, analysis_cache_dir=str(tmp_path)
    )
    analyzer.close()  # nothing opened yet
    programs = [generate_scenario(f"close-{seed}", "taint-app", seed).program for seed in (1, 2)]
    analyzer.analyze_program(programs[0], "first")
    assert analyzer._cache._handle is not None
    analyzer.close()
    assert analyzer._cache._handle is None
    analyzer.analyze_program(programs[1], "second")  # reopens the shard
    analyzer.close()
    assert len(AnalysisResultCache(str(tmp_path), spec_key=analyzer._cache.spec_key)) == 2
