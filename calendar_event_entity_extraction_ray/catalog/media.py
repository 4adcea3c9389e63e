"""Multimodal and synthetic-record queries: frames, features, perceptual
hashes, audio fingerprints, augmentation and training-record formats.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

import ray
import ray.data

from calendar_event_entity_extraction_ray.catalog import (
    _golden, _int64, _sf_of, query,
)


@query("augment_records", f"SELECT * FROM {_golden('augment_records')}", bench=True)
def q_augment(sf_dir: str) -> Any:
    """Reference augmentation pipeline over synthetic records."""
    from calendar_event_entity_extraction_ray.pipelines.augmentation import (
        augment_pipeline,
    )
    from calendar_event_entity_extraction_ray.stages.augment import synth_records_batch

    n = max(200, int(20_000 * _sf_of(sf_dir)))
    records = ray.data.range(n).map_batches(
        lambda b: synth_records_batch(b.column("id").to_pylist(), seed=7),
        batch_format="pyarrow",
    )
    out = augment_pipeline(records, n_synth=0, seed=7)
    return out.select_columns(["event_text", "action", "date", "time",
                               "location", "duration", "recurrence", "notes"])


@query("media_frames", f"SELECT * FROM {_golden('media_frames')}")
def q_media_frames(sf_dir: str) -> Any:
    """Video frame sampling: 1->N binary-row explosion (bounded per row)."""
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        frame_sample_batch,
        synth_media_table,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_table(n))
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow", batch_size=64)
    return out.select_columns(["media_id", "frame_ix", "frame_ts_ms"])


@query("media_features", f"SELECT * FROM {_golden('media_features')}")
def q_media_features(sf_dir: str) -> Any:
    """Image rows decode for REAL (PPM kernel: exact pixel statistics)
    and audio rows for REAL (stdlib WAV kernel: RMS / zero-crossing /
    duration); the stubbed video kind carries the -1 sentinel."""
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        DecodeFeatures,
        synth_media_table,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_table(n))
    out = ds.map_batches(
        DecodeFeatures, fn_constructor_kwargs={"feature_dim": 16},
        batch_format="pyarrow", batch_size=64, concurrency=(1, 4), num_cpus=1,
    )
    return out.select_columns(["media_id", "kind", "mime", "px_width",
                               "px_height", "mean_r_e4", "mean_g_e4",
                               "mean_b_e4", "std_gray_e4", "dur_ms",
                               "rms_e4", "zcr_e4"])


def _synth_records(sf_dir: str, seed: int = 7) -> "ray.data.Dataset":
    from calendar_event_entity_extraction_ray.stages.augment import (
        synth_records_batch,
    )

    n = max(200, int(20_000 * _sf_of(sf_dir)))
    return ray.data.range(n).map_batches(
        lambda b: synth_records_batch(b.column("id").to_pylist(), seed=seed),
        batch_format="pyarrow",
    )


@query("tokenize_records", f"SELECT * FROM {_golden('tokenize_records')}", bench=True)
def q_tokenize(sf_dir: str) -> Any:
    """Tokenized training features (reference build_feature, src/data.py:
    60-222): records -> assignment-format prompt/completion -> actor-pool
    TokenizeRecords -> per-record integer summary (oracle-hashable)."""
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.formats import (
        format_for_base_model,
    )
    from calendar_event_entity_extraction_ray.functions.tokenizer import (
        IGNORE_INDEX,
    )
    from calendar_event_entity_extraction_ray.stages.tokenize import (
        TokenizeRecords,
    )

    def to_pc(b: pa.Table) -> pa.Table:
        ids, prompts, comps = [], [], []
        for r in b.to_pylist():
            f = format_for_base_model(
                r["event_text"], {k: r.get(k) for k in TARGET_KEYS})
            ids.append(r["row_id"])
            prompts.append(f["prompt"])
            comps.append(f["completion"])
        return pa.table({"rec_id": pa.array(ids, pa.int64()),
                         "prompt": pa.array(prompts, pa.string()),
                         "completion": pa.array(comps, pa.string())})

    from calendar_event_entity_extraction_ray.stages.taskform import (
        run_stage,
    )

    feats = _synth_records(sf_dir).map_batches(
        to_pc, batch_format="pyarrow"
    ).map_batches(
        run_stage,
        fn_kwargs={"_cls": TokenizeRecords, "fmt": "assignment",
                   "id_col": "rec_id"},
        batch_format="pyarrow",
    )

    def summarize(b: pa.Table) -> pa.Table:
        out = {"rec_id": b.column("rec_id").to_pylist(),
               "n_tokens": [], "n_masked": [], "sum_ids": [], "sum_labels": []}
        for ids, labels in zip(b.column("input_ids").to_pylist(),
                               b.column("labels").to_pylist()):
            out["n_tokens"].append(len(ids))
            out["n_masked"].append(sum(1 for l in labels if l == IGNORE_INDEX))
            out["sum_ids"].append(sum(ids))
            out["sum_labels"].append(sum(l for l in labels if l != IGNORE_INDEX))
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    return feats.map_batches(summarize, batch_format="pyarrow")


@query("chatml_records", f"SELECT * FROM {_golden('chatml_records')}")
def q_chatml(sf_dir: str) -> Any:
    """Approach-B (enhanced) rendering + messages-record emission
    (create_enhanced_training_data.py:96-210, 303-313): deterministic
    per-record RNG, user/assistant contents as strings."""
    import random as _random

    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.render_enhanced import (
        build_messages_record,
        render_enhanced,
    )

    def render(b: pa.Table) -> pa.Table:
        ids, users, assists = [], [], []
        for r in b.to_pylist():
            slots = {k: r.get(k) for k in TARGET_KEYS}
            rng = _random.Random(f"enh:7:{r['row_id']}")
            text = render_enhanced(slots, rng)
            rec = build_messages_record(text, slots)
            ids.append(r["row_id"])
            users.append(rec["messages"][0]["content"])
            assists.append(rec["messages"][1]["content"])
        return pa.table({"rec_id": pa.array(ids, pa.int64()),
                         "user_content": pa.array(users, pa.string()),
                         "assistant_content": pa.array(assists, pa.string())})

    return _synth_records(sf_dir).map_batches(render, batch_format="pyarrow")


@query("media_resampled", f"SELECT * FROM {_golden('media_resampled')}")
def q_media_resampled(sf_dir: str) -> Any:
    """Audio resample stage as a query: WAV payloads resampled to 4 kHz
    (real nearest-sample kernel), then re-decoded for verified stats —
    (media_id, rate, n_samples, rms_e4)."""
    from calendar_event_entity_extraction_ray.functions.audiocodec import (
        audio_stats,
        decode_wav,
        is_wav,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        ResampleAudio,
        synth_media_table,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_table(n))
    out = ds.map_batches(
        ResampleAudio, fn_constructor_kwargs={"rate": 4000},
        batch_format="pyarrow", batch_size=64, concurrency=(1, 4))

    def stats(b: pa.Table) -> pa.Table:
        ids, rates, counts, rms = [], [], [], []
        for i, kind, p in zip(b.column("media_id").to_pylist(),
                              b.column("kind").to_pylist(),
                              b.column("payload").to_pylist()):
            if kind != "audio" or p is None or not is_wav(p):
                continue
            samples, rate = decode_wav(p)
            st = audio_stats(samples, rate)
            ids.append(i)
            rates.append(rate)
            counts.append(len(samples))
            rms.append(st["rms_e4"])
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "rate": pa.array(rates, pa.int64()),
                         "n_samples": pa.array(counts, pa.int64()),
                         "rms_e4": pa.array(rms, pa.int64())})

    return out.map_batches(stats, batch_format="pyarrow")


@query("phash_dup_images", f"SELECT id_a, id_b, dist"
    f" FROM {_golden('phash_dup_images')}")
def q_phash_dup_images(sf_dir: str) -> Any:
    """Perceptual image near-dup pairs: REAL pHash (gray -> 32x32 ->
    DCT-II -> median-threshold bits, functions/imagecodec.py) over the
    twin-planted media fixture, then the EXACT hamming pair join
    (stages/hamming.py — pigeonhole banding, max_dist+1 bands, lossless).
    Golden oracle is an INDEPENDENT brute-force all-pairs popcount —
    it checks the banding plan itself, not just the kernels."""
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        phash_batch,
        synth_media_with_twins,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_with_twins(n))
    ph = ds.map_batches(phash_batch, batch_format="pyarrow")
    pairs = hamming_near_pairs(ph, "phash", "media_id", max_dist=6)
    return _int64(pairs.to_pandas(), ["id_a", "id_b", "dist"])


@query("afp_dup_audio", f"SELECT id_a, id_b, dist"
    f" FROM {_golden('afp_dup_audio')}")
def q_afp_dup_audio(sf_dir: str) -> Any:
    """Audio near-dup pairs: REAL clip fingerprint (Haitsma-Kalker
    spectral-envelope bits + frame majority vote over the real WAV
    decode, functions/audiocodec.py:afp64) then the exact banded
    hamming join. Twin-planted fixture; golden oracle is the
    independent brute-force all-pairs mirror."""
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        afp_batch,
        synth_media_with_audio_twins,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_with_audio_twins(n))
    fp = ds.map_batches(afp_batch, batch_format="pyarrow")
    pairs = hamming_near_pairs(fp, "afp", "media_id", max_dist=8)
    return _int64(pairs.to_pandas(), ["id_a", "id_b", "dist"])
