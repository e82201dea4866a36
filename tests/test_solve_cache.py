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
    assert cache.get("d1") == FLOWS
    assert "d1" in cache and len(cache) == 1
    # a fresh instance reloads from disk
    reloaded = AnalysisResultCache(str(tmp_path), spec_key="spec-a")
    assert reloaded.get("d1") == FLOWS


def test_entries_are_keyed_by_spec(tmp_path):
    AnalysisResultCache(str(tmp_path), spec_key="spec-a").put("d1", FLOWS)
    other = AnalysisResultCache(str(tmp_path), spec_key="spec-b")
    assert other.get("d1") is None


def test_worker_shards_share_one_directory(tmp_path):
    left = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0")
    right = AnalysisResultCache(str(tmp_path), spec_key="s", worker="w1")
    left.put("d1", FLOWS)
    right.put("d2", [])
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
    with open(cache.path, "ab") as handle:
        handle.write(b"garbage\n")
        handle.write(b'{"spec": ["x"], "digest": "d3", "flows": []}\n')  # unhashable key
        handle.write(b'{"spec": "s", "digest": "\xff", "flows": []}\n')  # not UTF-8
    stats = compact_analysis_cache_file(cache.path)
    assert stats.lines_before == 6 and stats.lines_after == 2
    assert stats.superseded_dropped == 1 and stats.malformed_dropped == 3
    assert AnalysisResultCache(str(tmp_path), spec_key="s").get("d1") == FLOWS


def test_compact_dir_visits_every_shard(tmp_path):
    AnalysisResultCache(str(tmp_path), spec_key="s", worker="w0").put("d1", FLOWS)
    AnalysisResultCache(str(tmp_path), spec_key="s", worker="w1").put("d2", [])
    stats = compact_analysis_cache_dir(str(tmp_path))
    assert len(stats) == 2
    assert all(s.lines_after == 1 for s in stats)


def test_cli_compact_cache_accepts_analysis_cache_dir(tmp_path, capsys):
    cache = AnalysisResultCache(str(tmp_path), spec_key="s")
    cache.put("d1", [])
    cache._memory.pop("d1")
    cache.put("d1", FLOWS)
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
