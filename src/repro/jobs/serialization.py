"""JSON job specs and persistence codecs for the jobs layer.

The HTTP server (:mod:`repro.server`) receives job descriptions as JSON
and persists shard outcomes across process restarts; both halves live
here, next to the builder they feed, so the payload schema and the
:class:`~repro.jobs.builder.LinkageJob` surface cannot drift apart:

* :func:`normalize_payload` — validate a raw JSON mapping and return the
  canonical payload (defaults filled in, unknown keys rejected).  The
  canonical form is what a job store persists, so a restarted server
  rebuilds *exactly* the job that was submitted.
* :func:`build_job` — compile a payload into a runnable
  :class:`~repro.jobs.handle.JobHandle` through the fluent builder (every
  builder validation applies; nothing is re-implemented here);
  :func:`build_canonical_job` does the same for a payload that
  :func:`normalize_payload` already returned, without normalising it
  again.
* :func:`encode_shard_outcome` / :func:`decode_shard_outcome` — the codec
  for persisted :class:`~repro.runtime.sharding.ShardOutcome` records: the
  shard's match columns (:class:`~repro.runtime.shard_result.ShardResult`,
  the same pickle a worker returns to its parent) with its shard id and
  wall time, base64-wrapped once so it sits on one JSONL line.  No match
  event or record is written; restore binds the columns to the rebuilt
  plan.

Payload schema (all keys optional unless noted)::

    {
      "left_csv": "parent.csv",          # or "left": inline table (below)
      "right_csv": "child.csv",          # or "right": inline table
      "attribute": "location",           # REQUIRED; or {"left":…, "right":…}
      "strategy": "adaptive",
      "threshold": 0.85,
      "thresholds": {"theta_sim": …, "window_size": …, "delta_adapt": …,
                     "theta_out": …, "theta_curpert": …, "theta_pastpert": …},
      "policy": {"name": "mar", "budget": null, "seconds": null},
      "shards": 1, "backend": "serial", "partitioner": "hash",
      "handoff": "auto", "max_workers": null,
      "on_failure": {"policy": "fail-fast", "retries": null,
                     "shard_timeout": null},
      "progress": true,                  # adaptive only (builder-enforced)
      "priority": 1                      # fair-share weight (server-level)
    }

Inline tables are ``{"columns": ["name", …], "rows": [[…], …]}`` — the
shape a client builds from memory without touching the server's disk.
``priority`` is consumed by the server's scheduler, not the builder: a
higher weight receives a proportionally larger share of the worker
budget under contention.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Dict, Mapping

from repro.core.thresholds import Thresholds
from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.jobs.builder import STRATEGIES, LinkageJob
from repro.jobs.handle import JobHandle
from repro.runtime.shard_result import ShardResult
from repro.runtime.sharding import ShardOutcome

__all__ = [
    "PayloadError",
    "normalize_payload",
    "build_job",
    "build_canonical_job",
    "encode_shard_outcome",
    "decode_shard_outcome",
]


class PayloadError(ValueError):
    """A job payload that cannot be turned into a runnable job.

    Raised with a message suitable for returning verbatim in an HTTP 400
    body; builder-level validation errors (unknown strategy, bad
    threshold, …) are re-raised as this type too, so the server has one
    exception to map.
    """


#: Every key a payload may carry, with its default.  ``None`` defaults
#: mean "builder decides"; the normalizer fills the rest so persisted
#: payloads are self-contained.
_PAYLOAD_DEFAULTS: Dict[str, Any] = {
    "left_csv": None,
    "right_csv": None,
    "left": None,
    "right": None,
    "attribute": None,
    "strategy": "adaptive",
    "threshold": 0.85,
    "thresholds": None,
    "policy": None,
    "shards": 1,
    "backend": "serial",
    "partitioner": "hash",
    "handoff": "auto",
    "max_workers": None,
    "on_failure": None,
    "progress": None,
    "priority": 1,
}

_THRESHOLD_KEYS = (
    "theta_sim",
    "window_size",
    "delta_adapt",
    "theta_out",
    "theta_curpert",
    "theta_pastpert",
)

_POLICY_KEYS = ("name", "budget", "seconds")

_ON_FAILURE_KEYS = (
    "policy",
    "retries",
    "backoff_seconds",
    "backoff_multiplier",
    "shard_timeout",
)


def _require_mapping(value: Any, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise PayloadError(f"{what} must be a JSON object, got {value!r}")
    return value


def _check_keys(mapping: Mapping, allowed: tuple, what: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise PayloadError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def _normalize_side(payload: Mapping, side: str) -> Dict[str, Any]:
    """One input side: exactly one of ``<side>_csv`` or inline ``<side>``."""
    csv_path = payload.get(f"{side}_csv")
    inline = payload.get(side)
    if (csv_path is None) == (inline is None):
        raise PayloadError(
            f"exactly one of '{side}_csv' (a server-side CSV path) or "
            f"'{side}' (an inline table) is required"
        )
    if csv_path is not None:
        if not isinstance(csv_path, str) or not csv_path:
            raise PayloadError(
                f"'{side}_csv' must be a non-empty path string, got {csv_path!r}"
            )
        return {f"{side}_csv": csv_path, side: None}
    table = _require_mapping(inline, f"'{side}'")
    _check_keys(table, ("columns", "rows"), f"'{side}' inline-table")
    columns = table.get("columns")
    rows = table.get("rows")
    if not isinstance(columns, (list, tuple)) or not columns or not all(
        isinstance(column, str) and column for column in columns
    ):
        raise PayloadError(
            f"'{side}.columns' must be a non-empty list of attribute names"
        )
    if not isinstance(rows, (list, tuple)):
        raise PayloadError(f"'{side}.rows' must be a list of rows")
    width = len(columns)
    for index, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise PayloadError(
                f"'{side}.rows[{index}]' must be a list of {width} values "
                f"(one per column)"
            )
    return {
        f"{side}_csv": None,
        side: {"columns": list(columns), "rows": [list(row) for row in rows]},
    }


def normalize_payload(payload: Mapping) -> Dict[str, Any]:
    """Validate a raw JSON job payload and return its canonical form.

    Shape-level validation only (types, key sets, input-side exclusivity,
    the priority range); the *semantic* validation — strategy, policy,
    backend and partitioner names, threshold ranges, adaptive-only
    combinations — is the builder's, applied by :func:`build_job`.  The
    returned mapping is JSON-serialisable and self-contained: persist it,
    reload it, :func:`build_job` it, and the same job comes back.
    """
    payload = _require_mapping(payload, "the job payload")
    _check_keys(payload, tuple(_PAYLOAD_DEFAULTS), "payload")
    canonical = dict(_PAYLOAD_DEFAULTS)
    canonical.update(_normalize_side(payload, "left"))
    canonical.update(_normalize_side(payload, "right"))

    attribute = payload.get("attribute")
    if isinstance(attribute, Mapping):
        _check_keys(attribute, ("left", "right"), "'attribute'")
        left_name = attribute.get("left")
        right_name = attribute.get("right")
        if not (isinstance(left_name, str) and left_name):
            raise PayloadError("'attribute.left' must be a non-empty name")
        if not (isinstance(right_name, str) and right_name):
            raise PayloadError("'attribute.right' must be a non-empty name")
        canonical["attribute"] = {"left": left_name, "right": right_name}
    elif isinstance(attribute, str) and attribute:
        canonical["attribute"] = attribute
    else:
        raise PayloadError(
            "'attribute' is required: a join-attribute name or "
            "{'left': …, 'right': …}"
        )

    strategy = payload.get("strategy", "adaptive")
    if strategy not in STRATEGIES:
        raise PayloadError(
            f"unknown strategy {strategy!r}; available: {STRATEGIES}"
        )
    canonical["strategy"] = strategy

    for key, kind in (
        ("threshold", (int, float)),
        ("shards", int),
        ("max_workers", int),
        ("priority", int),
    ):
        if key in payload and payload[key] is not None:
            value = payload[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise PayloadError(f"'{key}' must be a number, got {value!r}")
            canonical[key] = value
    if canonical["priority"] < 1:
        raise PayloadError(
            f"'priority' must be a positive integer (the fair-share "
            f"weight), got {canonical['priority']}"
        )

    for key in ("backend", "partitioner", "handoff"):
        if key in payload and payload[key] is not None:
            value = payload[key]
            if not isinstance(value, str):
                raise PayloadError(f"'{key}' must be a string, got {value!r}")
            canonical[key] = value

    if payload.get("thresholds") is not None:
        thresholds = _require_mapping(payload["thresholds"], "'thresholds'")
        _check_keys(thresholds, _THRESHOLD_KEYS, "'thresholds'")
        canonical["thresholds"] = dict(thresholds)

    if payload.get("policy") is not None:
        policy = payload["policy"]
        if isinstance(policy, str):
            policy = {"name": policy}
        policy = _require_mapping(policy, "'policy'")
        _check_keys(policy, _POLICY_KEYS, "'policy'")
        if not (isinstance(policy.get("name"), str) and policy.get("name")):
            raise PayloadError("'policy.name' must be a policy name")
        canonical["policy"] = {key: policy.get(key) for key in _POLICY_KEYS}

    if payload.get("on_failure") is not None:
        on_failure = payload["on_failure"]
        if isinstance(on_failure, str):
            on_failure = {"policy": on_failure}
        on_failure = _require_mapping(on_failure, "'on_failure'")
        _check_keys(on_failure, _ON_FAILURE_KEYS, "'on_failure'")
        if not (
            isinstance(on_failure.get("policy"), str) and on_failure.get("policy")
        ):
            raise PayloadError("'on_failure.policy' must be a policy name")
        canonical["on_failure"] = {
            key: on_failure.get(key) for key in _ON_FAILURE_KEYS
        }

    progress = payload.get("progress")
    if progress is None:
        # The status endpoint reads the progress feed, so it defaults on
        # wherever the builder allows it (adaptive only).
        progress = strategy == "adaptive"
    if not isinstance(progress, bool):
        raise PayloadError(f"'progress' must be a boolean, got {progress!r}")
    canonical["progress"] = progress
    return canonical


def _load_side(canonical: Mapping, side: str) -> Table:
    csv_path = canonical.get(f"{side}_csv")
    if csv_path is not None:
        try:
            return Table.from_csv(csv_path, name=side)
        except OSError as error:
            raise PayloadError(
                f"cannot read '{side}_csv' ({csv_path}): {error}"
            ) from error
    inline = canonical[side]
    try:
        return Table.from_rows(
            Schema(inline["columns"], name=side), inline["rows"], name=side
        )
    except (TypeError, ValueError) as error:
        raise PayloadError(f"invalid inline table '{side}': {error}") from error


def build_job(payload: Mapping) -> JobHandle:
    """Compile a job payload into a runnable :class:`JobHandle`.

    Accepts a raw payload (normalised here) or an already-canonical one —
    normalisation is idempotent.  Every error, the builder's included,
    surfaces as :class:`PayloadError`.
    """
    return build_canonical_job(normalize_payload(payload))


def build_canonical_job(canonical: Mapping) -> JobHandle:
    """:func:`build_job` for a mapping :func:`normalize_payload` returned.

    Skips the second normalisation (a shape check and copy of every
    inline row) that :func:`build_job` would make; the caller guarantees
    ``canonical`` is normalised.
    """
    left = _load_side(canonical, "left")
    right = _load_side(canonical, "right")
    job = LinkageJob.between(left, right)
    try:
        attribute = canonical["attribute"]
        if isinstance(attribute, dict):
            job.on(attribute["left"], attribute["right"])
        else:
            job.on(attribute)
        job.strategy(canonical["strategy"])
        job.threshold(canonical["threshold"])
        if canonical["thresholds"] is not None:
            job.thresholds(Thresholds(**canonical["thresholds"]))
        if canonical["policy"] is not None:
            job.policy(
                canonical["policy"]["name"],
                budget=canonical["policy"]["budget"],
                seconds=canonical["policy"]["seconds"],
            )
        if (
            canonical["shards"] != 1
            or canonical["backend"] != "serial"
            or canonical["partitioner"] != "hash"
            or canonical["handoff"] != "auto"
            or canonical["max_workers"] is not None
        ):
            job.sharded(
                canonical["shards"],
                backend=canonical["backend"],
                partitioner=canonical["partitioner"],
                max_workers=canonical["max_workers"],
                handoff=canonical["handoff"],
            )
        if canonical["on_failure"] is not None:
            on_failure = canonical["on_failure"]
            job.on_failure(
                on_failure["policy"],
                retries=on_failure["retries"],
                backoff_seconds=on_failure["backoff_seconds"],
                backoff_multiplier=on_failure["backoff_multiplier"],
                shard_timeout=on_failure["shard_timeout"],
            )
        if canonical["progress"]:
            job.with_progress()
        return job.build()
    except PayloadError:
        raise
    except (TypeError, ValueError) as error:
        raise PayloadError(str(error)) from error


#: Leads every encoded outcome; a line without it is from another format.
_OUTCOME_TAG = "shard-columns/1"


def encode_shard_outcome(outcome: ShardOutcome) -> str:
    """One ASCII line for a shard outcome: its match columns, base64-wrapped.

    The payload pickles ``(tag, shard id, wall seconds, columns)``, where
    the columns are the :class:`~repro.runtime.shard_result.ShardResult`
    a worker returns — arrays, counters and trace, no match events, stored
    tuples or records.  The origin maps are not written: they are the
    rebuilt plan's.
    """
    payload = (_OUTCOME_TAG, outcome.shard_id, outcome.wall_seconds, outcome.result)
    return base64.b64encode(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_shard_outcome(encoded: str) -> ShardOutcome:
    """Inverse of :func:`encode_shard_outcome`: an *unbound* outcome.

    The result carries columns only; bind it to the plan that ran it
    (:meth:`ShardOutcome.of`, which :meth:`JobHandle.restore` does) before
    reading global pairs or events.  Anything that is not an encoded
    outcome of this format — corrupt base64, a pickle of something else,
    a line written by an older build — raises :class:`PayloadError`.
    """
    try:
        payload = pickle.loads(base64.b64decode(encoded.encode("ascii"), validate=True))
    except Exception as error:  # noqa: BLE001 - any undecodable line is one error
        raise PayloadError(
            f"not an encoded ShardOutcome: {type(error).__name__}: {error}"
        ) from error
    if not (
        isinstance(payload, tuple)
        and len(payload) == 4
        and payload[0] == _OUTCOME_TAG
        and isinstance(payload[1], int)
        and isinstance(payload[3], ShardResult)
    ):
        raise PayloadError(
            f"not an encoded ShardOutcome of this format: decoded a "
            f"{type(payload).__name__}"
        )
    _, shard_id, wall_seconds, result = payload
    return ShardOutcome(shard_id=shard_id, result=result, wall_seconds=wall_seconds)
