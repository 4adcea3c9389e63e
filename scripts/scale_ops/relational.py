"""Relational and windowed operators: set ops, composite joins, grouped
heavy hitters, count windows, resampling."""

from __future__ import annotations

import collections
import time

import numpy as np
import pyarrow as pa
import ray

from calendar_event_entity_extraction_ray.stages.aggregate import (
    grouped_heavy_hitters,
)
from calendar_event_entity_extraction_ray.stages.joins import hash_join
from calendar_event_entity_extraction_ray.stages.setops import set_op
from calendar_event_entity_extraction_ray.stages.windows import (
    count_windows,
    resample_fill,
)


def _setop_side(batch: pa.Table, side: str, n_keys: int) -> pa.Table:
    k = batch.column("id").to_numpy() % n_keys
    if side == "r":
        k = k + n_keys // 2
    return pa.table({"k": pa.array(k.astype(np.int64))})


def setop(ctx, *, kind="intersect", rows=20_000_000, keys=2_000_000,
          pre_distinct="on") -> dict:
    """Set operators at planted overlap (--kind union|intersect|except).

    Synthesizes two N-row bags (each key repeated ~N/n_keys times) whose
    key ranges overlap by exactly half, runs set_op (--pre-distinct
    on|off) and verifies the exact closed-form distinct-output count:

      left keys  = [0, n_keys)           right keys = [n_keys/2, 3*n_keys/2)
      intersect  = n_keys/2              except      = n_keys/2
      union      = 3*n_keys/2
    """
    expect = {"intersect": keys // 2, "except": keys // 2,
              "union": keys + keys // 2}[kind]
    left, right = (
        ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
            _setop_side, fn_kwargs={"side": s, "n_keys": keys},
            batch_format="pyarrow") for s in "lr")
    t0 = time.time()
    got = set_op(left, right, ["k"], kind,
                 pre_distinct=pre_distinct == "on").count()
    wall = time.time() - t0
    return {"metric": f"setop_{kind}_scale", "rows_per_side": rows,
            "keys_per_side": keys, "rows_out": got, "expect": expect,
            "ok": got == expect, "wall_sec": round(wall, 1),
            "pre_distinct": pre_distinct,
            "rows_per_sec": round(2 * rows / wall, 1)}


def _join_side(batch: pa.Table, side: str, n_keys: int) -> pa.Table:
    """Row i -> key pair (i % n_keys, (i % n_keys) % 97). The left side
    keeps every key; the right side shifts the low half of the key space
    by n_keys (no match), so exactly half the key range matches."""
    ids = batch.column("id").to_numpy()
    a = ids % n_keys
    if side == "r":
        a = np.where(a < n_keys // 2, a + n_keys, a)
    t = {"a": pa.array(a.astype(np.int64)),
         "b": pa.array((a % 97).astype(np.int64))}
    t["lv" if side == "l" else "rv"] = pa.array(ids.astype(np.int64))
    return pa.table(t)


def join(ctx, *, rows=10_000_000, keys=1_000_000, how="inner") -> dict:
    """Composite-key hash joins (--how inner|left|full).

    Two N-row sides keyed on a composite (a, b) pair where only half the
    key range matches. Per matching key: N/k rows on each side, so
    (N/k)^2 joined rows over k/2 matching keys; unmatched keys add their
    bare rows for left (left half) and full (both halves) joins. Verifies
    the exact output row count.
    """
    left, right = (
        ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
            _join_side, fn_kwargs={"side": s, "n_keys": keys},
            batch_format="pyarrow") for s in "lr")
    t0 = time.time()
    n_out = hash_join(left, right, ["a", "b"], ["a", "b", "lv"],
                      ["a", "b", "rv"], how=how).count()
    wall = time.time() - t0
    per_key = rows // keys
    matched = (keys // 2) * per_key * per_key
    unmatched_side = (keys - keys // 2) * per_key
    expect = {"inner": matched, "left": matched + unmatched_side,
              "full": matched + 2 * unmatched_side}[how]
    return {"metric": f"hash_join_{how}_composite_scale",
            "rows_per_side": rows, "distinct_pairs": keys, "how": how,
            "out_rows": int(n_out), "expect_rows": int(expect),
            "ok": n_out == expect, "wall_sec": round(wall, 1),
            "input_rows_per_sec": round(2 * rows / wall, 1)}


def _mg_rows(batch: pa.Table, n_groups: int) -> pa.Table:
    ids = batch.column("id").to_numpy()
    g = (ids % n_groups).astype(np.int64)
    heavy = ((ids // n_groups) % 10) < 3  # exactly 30% of each group's rows
    tail = (ids * np.int64(2654435761)) % 100_000
    return pa.table({"g": pa.array(g),
                     "v": pa.array(np.where(heavy, -1 - g, tail)
                                   .astype(np.int64))})


def mg(ctx, *, rows=20_000_000, groups=1000, k=64) -> dict:
    """Grouped Misra-Gries heavy hitters at planted scale.

    N rows over G groups; within each group exactly 30% of rows carry a
    planted per-group heavy item (id = -1 - group) and the rest spread
    over a 100k-item tail. Verifies that EVERY group's planted item
    survives the distributed sketch merge with an estimate inside the
    guaranteed [true - group_n/(k+1), true] band, and that group_n is
    exact.
    """
    ds = ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
        _mg_rows, fn_kwargs={"n_groups": groups}, batch_format="pyarrow")
    t0 = time.time()
    out = grouped_heavy_hitters(ds, "g", "v", k=k).to_pandas()
    wall = time.time() - t0
    bad = found = 0
    per_group = out.set_index(["g", "v"])
    for g in range(groups):
        group_n = rows // groups + (1 if g < rows % groups else 0)
        # exactly 30%: seq in [0, group_n), heavy where seq % 10 < 3
        true = (group_n // 10) * 3 + min(group_n % 10, 3)
        if (g, -1 - g) not in per_group.index:
            bad += 1
            continue
        row = per_group.loc[(g, -1 - g)]
        found += 1
        if not (true - group_n / (k + 1) <= int(row["mg_est"]) <= true
                and int(row["group_n"]) == group_n):
            bad += 1
    return {"metric": "grouped_mg_scale", "rows": rows, "groups": groups,
            "k": k, "planted_found": found, "violations": bad,
            "sketch_rows_out": int(len(out)),
            "ok": bad == 0 and found == groups, "wall_sec": round(wall, 1),
            "rows_per_sec": round(rows / wall, 1)}


def countwin(ctx, *, rows=10_000_000, keys=100_000, n=16, slide=4) -> dict:
    """Count-based windows, tumbling and sliding, with planted truth.

    N events over K keys (event i: key = i % K, per-key sequence position
    = i // K, ts = position seconds, value = 1.0): every key gets exactly
    E = N/K events in a known order, so the window layout is closed form.
    Tumbling windows of n have ceil(E/n) windows per key with sizes
    (n, ..., n, E mod n or n); sliding windows (n, slide s) have
    floor((E-1)/s)+1 windows per key, window w holding min(n, E - w*s)
    events. Sums are exact cents (value=1.0 -> 100 per event), so every
    window's sum_cents == 100 * n_events. --rows must be a multiple of
    --keys.
    """
    assert rows % keys == 0, "--rows must be a multiple of --keys"
    E = rows // keys

    def synth(b: pa.Table) -> pa.Table:
        i = b.column("id").to_numpy()
        pos = (i // keys).astype(np.int64)
        return pa.table({
            "user_id": pa.array((i % keys).astype(np.int64)),
            "ts": pa.array(pos * 1_000_000).cast(pa.timestamp("us")),
            "event_id": pa.array(i.astype(np.int64)),
            "value": pa.array(np.ones(len(i))),
        })

    results = {}
    ok = True
    for form, step in (("tumbling", None), ("sliding", slide)):
        ds = ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
            synth, batch_format="pyarrow")
        t0 = time.time()
        out = count_windows(ds, n=n, slide=step)
        # verify via bounded aggregates: per-(window_id, n_events) counts
        hist: collections.Counter = collections.Counter()
        total_rows = 0
        sum_ok = True
        for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
            wid = b.column("window_id").to_numpy()
            ne = b.column("n_events").to_numpy()
            sum_ok &= bool((b.column("sum_cents").to_numpy() == ne * 100)
                           .all())
            total_rows += len(wid)
            uq, cnt = np.unique(np.stack([wid, ne]), axis=1,
                                return_counts=True)
            for (w, e2), c in zip(uq.T, cnt):
                hist[(int(w), int(e2))] += int(c)
        wall = time.time() - t0
        if step is None:
            want = {(w, n if (w + 1) * n <= E else E - w * n): keys
                    for w in range(-(-E // n))}
        else:
            want = {(w, min(n, E - w * step)): keys
                    for w in range((E - 1) // step + 1)}
        form_ok = (sum_ok and dict(hist) == want
                   and total_rows == len(want) * keys)
        ok &= form_ok
        results[form] = {"wall_sec": round(wall, 1), "windows": total_rows,
                         "ok": bool(form_ok),
                         "events_per_sec": round(rows / wall, 1)}
    return {"metric": "count_windows_scale", "rows": rows, "keys": keys,
            "n": n, "slide": slide, **results, "ok": bool(ok)}


SPAN_S = 30 * 24 * 3600


def _resample_rows(batch: pa.Table, users: int) -> pa.Table:
    ids = batch.column("id").to_numpy().astype(np.int64)
    rng = np.random.RandomState(int(ids[0]) % (2**31) if len(ids) else 0)
    ts = rng.randint(0, SPAN_S, len(ids)) * 1_000_000
    return pa.table({
        "user_id": pa.array(rng.randint(0, users, len(ids)).astype(np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array(rng.uniform(0, 100, len(ids)).round(2)),
    })


def resample(ctx, *, events=10_000_000, users=50_000) -> dict:
    """resample_fill at scale: N events over K users across a 30-day span,
    hourly buckets. The output grid is span-bound (users x hours), usually
    LARGER than the input, and is consumed streaming (never pulled to the
    driver). Reports grid and gap rows; ok when the grid's n_events sum
    to the input events (events_conserved).
    """
    ds = ray.data.range(events).map_batches(
        _resample_rows, fn_kwargs={"users": users},
        batch_format="pyarrow").materialize()
    t0 = time.time()
    rows = n_total = zero_rows = 0
    for b in resample_fill(ds, bucket_s=3600).iter_batches(
            batch_format="pyarrow", batch_size=None):
        rows += b.num_rows
        cnt = b.column("n_events").to_numpy(zero_copy_only=False)
        n_total += int(cnt.sum())
        zero_rows += int((cnt == 0).sum())
    wall = time.time() - t0
    return {"events": events, "users": users, "wall_sec": round(wall, 1),
            "events_per_sec": int(events / max(wall, 1e-9)),
            "grid_rows": rows, "gap_rows": zero_rows,
            "events_conserved": bool(n_total == events),
            "ok": n_total == events}
