"""Spec version lifecycle: candidate -> promoted / rolled back.

Thin, auditable glue over :class:`~repro.service.store.SpecStore` state
transitions plus the event trail operators watch.  The state machine::

                       put(state="candidate")
        (new version) ------------------------> candidate
                                                   |
                            canary passed          |   canary failed /
                            + payload verified     |   tampered payload
                                  v                v
                              promoted         rolled_back
                                  |
                                  |  operator / later regression
                                  v
                             rolled_back

Promotion is the *only* edge that makes a candidate servable, and it
re-verifies the payload checksum first: a candidate tampered with between
publish and promotion is rolled back instead of served.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.events import CandidatePublished, SpecPromoted, SpecRolledBack
from repro.obs import trace as _trace
from repro.service.store import (
    STATE_CANDIDATE,
    STATE_PROMOTED,
    STATE_ROLLED_BACK,
    SpecIntegrityError,
    SpecRecord,
    SpecStore,
)


class PromotionError(RuntimeError):
    """A candidate could not be promoted.

    ``rolled_back`` tells the caller whether the failure already demoted
    the candidate (integrity failures do; a bad starting state does not).
    """

    def __init__(self, message: str, rolled_back: bool = False):
        super().__init__(message)
        self.rolled_back = rolled_back


class SpecLifecycle:
    """Drives one store's version state machine, emitting the event trail."""

    def __init__(self, store: SpecStore):
        self.store = store

    def announce_candidate(self, record: SpecRecord, counterexamples: int = 0) -> None:
        """Emit the :class:`CandidatePublished` trail for a fresh candidate."""
        _trace.emit(
            CandidatePublished(
                spec_id=record.spec_id,
                parent=record.parent or "",
                version=record.version,
                counterexamples=counterexamples,
            )
        )

    def candidates(self, fingerprint: Optional[str] = None) -> Tuple[SpecRecord, ...]:
        """Versions currently awaiting a canary verdict (oldest first)."""
        states = self.store.states()
        return tuple(
            record
            for record in self.store.list(fingerprint=fingerprint)
            if states.get(record.spec_id) == STATE_CANDIDATE
        )

    def promote(self, spec_id: str) -> SpecRecord:
        """Make a canaried candidate servable.

        Only a ``candidate`` may be promoted, and its payload must still
        match the checksum recorded at publish time -- a tampered candidate
        is rolled back (with the integrity failure as the recorded reason)
        and :class:`PromotionError` is raised with ``rolled_back=True``.
        """
        state = self.store.current_state(spec_id)
        if state != STATE_CANDIDATE:
            raise PromotionError(
                f"{spec_id} is {state!r}, not a candidate -- nothing to promote"
            )
        try:
            record = self.store.verify_spec(spec_id)
        except SpecIntegrityError as error:
            self.rollback(spec_id, reason=f"integrity: {error}")
            raise PromotionError(
                f"candidate {spec_id} failed payload verification and was "
                f"rolled back: {error}",
                rolled_back=True,
            ) from error
        self.store.set_state(spec_id, STATE_PROMOTED, reason="canary passed")
        _trace.emit(
            SpecPromoted(
                spec_id=spec_id, version=record.version, parent=record.parent or ""
            )
        )
        return record

    def rollback(self, spec_id: str, reason: str) -> Tuple[SpecRecord, Optional[SpecRecord]]:
        """Withdraw a version from service (or from candidacy).

        Returns ``(rolled_back_record, restored_record)`` where the restored
        record is what ``latest`` now serves for the same library -- the
        predecessor a running daemon's poller will fall back to.
        """
        record = self.store.record(spec_id)
        self.store.set_state(spec_id, STATE_ROLLED_BACK, reason=reason)
        restored = self.store.latest(fingerprint=record.fingerprint)
        _trace.emit(
            SpecRolledBack(
                spec_id=spec_id,
                reason=reason,
                restored_spec_id=restored.spec_id if restored is not None else "",
            )
        )
        return record, restored


def seed_store(store: SpecStore, pipeline: str, library_program=None, interface=None) -> SpecRecord:
    """Bootstrap a store from a named specification set (no inference).

    Wraps the ``ground_truth`` or ``handwritten`` automaton in a synthetic
    result (via :meth:`repro.repair.engine.RepairEngine.resolve_base`) and
    publishes it as version 1 -- the cheap way to stand up a servable,
    deliberately *gapped* store for the plane's e2e story and the CI smoke
    job: the named sets reproducibly miss the ``toArray``-style flows the
    taint-app family witnesses.
    """
    from repro.library.registry import build_library_program, build_spec_interface
    from repro.repair.engine import RepairEngine

    library = library_program if library_program is not None else build_library_program()
    if interface is None:
        interface = build_spec_interface(library)
    engine = RepairEngine(store=store, library_program=library, interface=interface)
    description, synthetic = engine.resolve_base(pipeline)
    return store.put(
        synthetic,
        library_program=library,
        provenance={"kind": "repro.plane.seed/1", "base": description},
    )


__all__ = ["PromotionError", "SpecLifecycle", "seed_store"]
