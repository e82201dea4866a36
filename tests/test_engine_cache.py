"""Tests for the content-addressed persistent oracle cache."""

import json
import os

import pytest

from repro.engine.cache import (
    InMemoryCache,
    PersistentCache,
    compact_cache_file,
    decode_word,
    encode_word,
    open_oracle_cache,
    program_fingerprint,
)
from repro.lang import ClassBuilder, Program
from repro.learn.oracle import DEFAULT_MAX_STEPS, WitnessOracle
from repro.specs.variables import param, receiver, ret


def _word(*variables):
    return tuple(variables)


BOX_WORD = _word(
    param("Box", "set", "ob"), receiver("Box", "set"), receiver("Box", "get"), ret("Box", "get")
)
WRONG_WORD = _word(
    param("Box", "set", "ob"), receiver("Box", "set"), receiver("Box", "clone"), ret("Box", "clone")
)


# ------------------------------------------------------------------ fingerprint
def test_fingerprint_is_stable(library_program):
    assert program_fingerprint(library_program) == program_fingerprint(library_program)


def test_fingerprint_changes_with_the_library(library_program):
    builder = ClassBuilder("Extra", is_library=True)
    method = builder.method("noop")
    method.ret()
    builder.add_method(method)
    changed = library_program.merged_with(Program([builder.build()]))
    assert program_fingerprint(changed) != program_fingerprint(library_program)


# ------------------------------------------------------------------- word codec
def test_word_codec_round_trip():
    encoded = encode_word(BOX_WORD)
    assert all(isinstance(text, str) for text in encoded)
    assert decode_word(encoded) == BOX_WORD


# ------------------------------------------------------------------- persistence
def test_persistent_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = PersistentCache(path, fingerprint="fp1")
    cache.put(BOX_WORD, True)
    cache.put(WRONG_WORD, False)
    assert cache.pending_entries == 2
    assert cache.flush() == 2
    assert cache.pending_entries == 0

    reloaded = PersistentCache(path, fingerprint="fp1")
    assert reloaded.get(BOX_WORD) is True
    assert reloaded.get(WRONG_WORD) is False
    assert len(reloaded) == 2


def test_persistent_cache_isolated_by_fingerprint_and_initialization(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with PersistentCache(path, fingerprint="fp1", initialization="instantiation") as cache:
        cache.put(BOX_WORD, True)

    other_library = PersistentCache(path, fingerprint="fp2", initialization="instantiation")
    assert other_library.get(BOX_WORD) is None

    other_init = PersistentCache(path, fingerprint="fp1", initialization="null")
    assert other_init.get(BOX_WORD) is None

    # a different interpreter step budget can flip an answer (timeouts fail
    # witnesses), so it namespaces the cache too
    other_steps = PersistentCache(path, fingerprint="fp1", max_steps=100)
    assert other_steps.get(BOX_WORD) is None

    same = PersistentCache(path, fingerprint="fp1", initialization="instantiation")
    assert same.get(BOX_WORD) is True


def _oracle_line(**fields) -> bytes:
    entry = {"fp": "fp1", "init": "instantiation", "steps": DEFAULT_MAX_STEPS}
    entry.update(fields)
    return json.dumps(entry).encode("utf-8")


#: lines a reader must skip rather than raise on
FOREIGN_ORACLE_LINES = (
    b"[1, 2]",
    b'"x"',
    _oracle_line(word=list(encode_word(WRONG_WORD))),  # no result
    b'{"fp": "fp1", "word": ["\xff"]}',  # not UTF-8
)


def test_persistent_cache_skips_corrupt_trailing_line(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with PersistentCache(path, fingerprint="fp1") as cache:
        cache.put(BOX_WORD, True)
    with open(path, "ab") as handle:
        handle.write(b"".join(line + b"\n" for line in FOREIGN_ORACLE_LINES))
        handle.write(b'{"fp": "fp1", "init": "instantiation", "word"')  # interrupted write
    reloaded = PersistentCache(path, fingerprint="fp1")
    assert reloaded.get(BOX_WORD) is True
    assert len(reloaded) == 1


def test_persistent_cache_deduplicates_rewrites(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = PersistentCache(path, fingerprint="fp1")
    cache.put(BOX_WORD, True)
    cache.put(BOX_WORD, True)  # same answer again: no second pending entry
    assert cache.pending_entries == 1
    cache.flush()
    # flushing again writes nothing
    assert cache.flush() == 0
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert len(lines) == 1


def test_warm_oracle_answers_from_disk_without_executing(tmp_path, library_program, interface):
    """Cache round-trip: save -> load -> identical oracle answers, zero executions."""
    path = str(tmp_path / "cache.jsonl")
    cold_cache = open_oracle_cache(path, library_program)
    cold = WitnessOracle(library_program, interface, cache=cold_cache)
    answers = {word: cold(word) for word in (BOX_WORD, WRONG_WORD)}
    assert cold.stats.executions == 2
    cold_cache.flush()

    warm_cache = open_oracle_cache(path, library_program)
    warm = WitnessOracle(library_program, interface, cache=warm_cache)
    for word, expected in answers.items():
        assert warm(word) is expected
    assert warm.stats.executions == 0
    assert warm.stats.cache_hits == len(answers)


# ------------------------------------------------------------------- compaction
def test_compact_drops_superseded_and_malformed_lines(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with PersistentCache(path, fingerprint="fp1") as cache:
        cache.put(BOX_WORD, True)
        cache.put(WRONG_WORD, False)
    # an append-only store accumulates a duplicate line for a re-written key,
    # and an interrupted write leaves a malformed trailing line
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "fp": "fp1",
                    "init": "instantiation",
                    "steps": DEFAULT_MAX_STEPS,
                    "word": list(encode_word(BOX_WORD)),
                    "result": True,
                }
            )
            + "\n"
        )
        handle.write('{"fp": "fp1", "init"\n')
    with open(path, "ab") as handle:  # an unhashable key field, and non-UTF-8 bytes
        handle.write(_oracle_line(fp=["x"], word=[], result=True) + b"\n")
        handle.write(b'{"fp": "fp1", "word": ["\xff"]}\n')

    stats = compact_cache_file(path)
    assert stats.lines_before == 6
    assert stats.lines_after == 2
    assert stats.superseded_dropped == 1
    assert stats.malformed_dropped == 3
    assert stats.lines_dropped == 4

    reloaded = PersistentCache(path, fingerprint="fp1")
    assert reloaded.get(BOX_WORD) is True
    assert reloaded.get(WRONG_WORD) is False
    assert len(reloaded) == 2


def test_compact_keeps_the_last_answer_per_key(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    entry = {"fp": "fp1", "init": "instantiation", "steps": 10_000}
    with open(path, "w", encoding="utf-8") as handle:
        for result in (True, False):  # contradictory lines: the last one wins
            handle.write(json.dumps({**entry, "word": list(encode_word(BOX_WORD)), "result": result}) + "\n")
    compact_cache_file(path)
    reloaded = PersistentCache(path, fingerprint="fp1", max_steps=10_000)
    assert reloaded.get(BOX_WORD) is False


def test_compact_preserves_other_fingerprints(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with PersistentCache(path, fingerprint="fp1") as cache:
        cache.put(BOX_WORD, True)
    with PersistentCache(path, fingerprint="fp2") as cache:
        cache.put(BOX_WORD, False)
    stats = compact_cache_file(path)
    assert stats.lines_after == 2
    assert PersistentCache(path, fingerprint="fp1").get(BOX_WORD) is True
    assert PersistentCache(path, fingerprint="fp2").get(BOX_WORD) is False


def test_compact_missing_file_is_a_noop(tmp_path):
    stats = compact_cache_file(str(tmp_path / "missing.jsonl"))
    assert stats.lines_before == 0
    assert stats.lines_after == 0
    assert not (tmp_path / "missing.jsonl").exists()


def test_cache_compact_method_flushes_first(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = PersistentCache(path, fingerprint="fp1")
    cache.put(BOX_WORD, True)
    stats = cache.compact()
    assert cache.pending_entries == 0
    assert stats.lines_after == 1
    assert PersistentCache(path, fingerprint="fp1").get(BOX_WORD) is True


def test_in_memory_cache_is_the_oracle_dict_cache():
    cache = InMemoryCache({BOX_WORD: True})
    assert cache.get(BOX_WORD) is True
    assert cache.get(WRONG_WORD) is None
    cache.put(WRONG_WORD, False)
    assert dict(cache.items()) == {BOX_WORD: True, WRONG_WORD: False}
    assert len(cache) == 2
