"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata.

Image rows carry REAL uncompressed PPM (P6) payloads (decode/resize =
exact numpy kernels, ``functions/imagecodec.py``); audio rows carry REAL
RIFF/WAVE PCM16 payloads (decode + signal statistics via the stdlib
``wave`` module, ``functions/audiocodec.py``). Compressed codecs
(JPEG/PNG/mp3/video) need libraries not present in this container, so
those kernels remain honest stubs: deterministic md5-derived fakes by
default, ``NotImplementedError`` in strict mode.

Ray-side mechanics are real throughout: binary columns stay in
``batch_format="pyarrow"`` end-to-end (no pandas object-dtype round-trip),
the stages are actor pools (a real decoder would load codecs/models once
per actor), and ``batch_size`` is small because payload rows are wide
(ray_guide.md "Pitfalls": memory-aware batch sizing for binary columns).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from calendar_event_entity_extraction_ray.functions.audiocodec import (
    audio_stats,
    decode_wav,
    encode_wav,
    is_wav,
)
from calendar_event_entity_extraction_ray.functions.imagecodec import (
    channel_stats,
    decode_ppm,
    encode_ppm,
    is_ppm,
    resize_nearest,
)

_NO_STATS = {"px_width": -1, "px_height": -1, "mean_r_e4": -1,
             "mean_g_e4": -1, "mean_b_e4": -1, "std_gray_e4": -1,
             "dur_ms": -1, "rms_e4": -1, "zcr_e4": -1}
_STAT_COLS = list(_NO_STATS)


class DecodeFeatures:
    """Actor-pool stage: binary payload -> feature vector + pixel stats.

    PPM image payloads decode for REAL (exact numpy channel statistics;
    the feature vector is mean/std per channel + a gray histogram). WAV
    audio payloads decode for REAL via the stdlib wave module (RMS /
    zero-crossing rate / duration; the feature vector is [rms, zcr,
    amplitude histogram]). Other kinds fall back to a deterministic
    md5-derived fake feature, or raise ``NotImplementedError`` when
    ``strict=True`` (no codec libs here). Non-applicable stats carry -1
    (not null: keeps the stats columns plain int64 end-to-end)."""

    def __init__(self, feature_dim: int = 16, strict: bool = False) -> None:
        self.dim = feature_dim
        self.strict = strict

    def _fake_feature(self, payload: bytes) -> np.ndarray:
        digest = hashlib.md5(payload or b"").digest()
        rng = np.random.RandomState(int.from_bytes(digest[:4], "little"))
        return rng.standard_normal(self.dim).astype(np.float32)

    def _image_feature(self, pixels: np.ndarray, stats: dict) -> np.ndarray:
        """Real feature: [means/255, stds/255, gray histogram] -> dim."""
        gray = pixels.reshape(-1, 3).mean(axis=1)
        n_hist = max(self.dim - 6, 1)
        hist, _ = np.histogram(gray, bins=n_hist, range=(0.0, 255.0))
        hist = hist.astype(np.float64) / max(gray.size, 1)
        vec = np.concatenate([stats["_means"] / 255.0,
                              stats["_stds"] / 255.0, hist])
        if vec.size < self.dim:
            vec = np.pad(vec, (0, self.dim - vec.size))
        return vec[: self.dim].astype(np.float32)

    def _audio_feature(self, samples, stats: dict):
        """Real feature: [rms, zcr, amplitude histogram] -> dim."""
        x = samples.astype(np.float64) / 32768.0
        n_hist = max(self.dim - 2, 1)
        hist, _ = np.histogram(x, bins=n_hist, range=(-1.0, 1.0))
        hist = hist.astype(np.float64) / max(x.size, 1)
        vec = np.concatenate([[stats["rms_e4"] / 10_000.0,
                               stats["zcr_e4"] / 10_000.0], hist])
        if vec.size < self.dim:
            vec = np.pad(vec, (0, self.dim - vec.size))
        return vec[: self.dim].astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, stat_rows = [], []
        for p in batch.column("payload").to_pylist():
            if p is not None and is_ppm(p):
                pixels = decode_ppm(p)
                stats = channel_stats(pixels)
                feats.append(self._image_feature(pixels, stats))
                row = dict(_NO_STATS)
                row.update({k: stats[k] for k in stats if k in row})
                stat_rows.append(row)
            elif p is not None and is_wav(p):
                samples, rate = decode_wav(p)
                stats = audio_stats(samples, rate)
                feats.append(self._audio_feature(samples, stats))
                row = dict(_NO_STATS)
                row.update(stats)
                stat_rows.append(row)
            elif self.strict:
                raise NotImplementedError(
                    "only uncompressed PPM/WAV decode in this environment; "
                    "JPEG/PNG/mp3/video need codec libraries (run with "
                    "strict=False for the deterministic stub)")
            else:
                feats.append(self._fake_feature(p))
                stat_rows.append(_NO_STATS)
        out = batch.drop_columns(["payload"])  # features replace wide bytes
        out = out.append_column(
            "feature",
            pa.array([f.tolist() for f in feats], pa.list_(pa.float32(), self.dim)),
        )
        for k in _STAT_COLS:
            out = out.append_column(
                k, pa.array([r[k] for r in stat_rows], pa.int64()))
        return out


class ResizeImages:
    """Actor-pool stage: image payload -> resized payload + updated typed
    metadata. PPM payloads resize for REAL (numpy nearest-neighbor);
    non-PPM images keep the md5-derived stub bytes (no codec libs; strict
    raises). Binary in/out stays Arrow; small batches for wide rows."""

    def __init__(self, width: int = 64, height: int = 64, strict: bool = False):
        self.w, self.h, self.strict = width, height, strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_payload = []
        for p, kind in zip(batch.column("payload").to_pylist(),
                           batch.column("kind").to_pylist()):
            if kind != "image":
                out_payload.append(p)
            elif p is not None and is_ppm(p):
                out_payload.append(
                    encode_ppm(resize_nearest(decode_ppm(p), self.w, self.h)))
            elif self.strict:
                raise NotImplementedError(
                    "non-PPM image resize needs a codec library")
            else:
                seed_bytes = hashlib.md5((p or b"") + b"resize").digest()
                reps = (self.w * self.h * 3) // 16 + 1
                out_payload.append((seed_bytes * reps)[: self.w * self.h * 3])
        names = batch.column_names
        batch = batch.set_column(names.index("payload"), "payload",
                                 pa.array(out_payload, pa.binary()))
        kinds = batch.column("kind").to_pylist()
        batch = batch.set_column(
            names.index("width"), "width",
            pa.array([self.w if k == "image" else None for k in kinds], pa.int32()))
        return batch.set_column(
            names.index("height"), "height",
            pa.array([self.h if k == "image" else None for k in kinds], pa.int32()))


def frame_sample_batch(batch: pa.Table, every_ms: int = 500) -> pa.Table:
    """Stateless flat explosion: one row per sampled frame of each video
    (deterministic fake frame ids; a real decoder would seek). Shows the
    1->N binary-row expansion pattern with bounded output per row."""
    out = {"media_id": [], "frame_ix": [], "frame_ts_ms": [], "frame": []}
    for mid, kind, payload, dur in zip(
        batch.column("media_id").to_pylist(), batch.column("kind").to_pylist(),
        batch.column("payload").to_pylist(), batch.column("duration_ms").to_pylist(),
    ):
        if kind != "video" or not dur:
            continue
        n_frames = min(dur // every_ms + 1, 64)  # cap per-row output
        for i in range(n_frames):
            out["media_id"].append(mid)
            out["frame_ix"].append(i)
            out["frame_ts_ms"].append(i * every_ms)
            out["frame"].append(hashlib.md5((payload or b"") + bytes([i])).digest())
    return pa.table({
        "media_id": pa.array(out["media_id"], pa.int64()),
        "frame_ix": pa.array(out["frame_ix"], pa.int32()),
        "frame_ts_ms": pa.array(out["frame_ts_ms"], pa.int32()),
        "frame": pa.array(out["frame"], pa.binary()),
    })


def synth_pixels(media_id: int, width: int, height: int, seed: int) -> np.ndarray:
    """Deterministic RGB gradient + seeded texture for one synthetic image."""
    digest = hashlib.md5(f"pixels:{seed}:{media_id}".encode()).digest()
    rng = np.random.RandomState(int.from_bytes(digest[:4], "little"))
    y = np.linspace(0, 255, height, dtype=np.float64)[:, None]
    x = np.linspace(0, 255, width, dtype=np.float64)[None, :]
    base = np.stack([y + 0 * x, 0 * y + x, (y + x) / 2], axis=2)
    noise = rng.randint(0, 32, size=(height, width, 3)).astype(np.float64)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def synth_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake media rows. Image rows carry REAL PPM payloads
    and audio rows REAL RIFF/WAVE PCM16 payloads (both decodable by the
    real kernels); video payloads are opaque seeded bytes for the stubbed
    kind."""
    rows = {k: [] for k in ("media_id", "kind", "payload", "mime",
                            "width", "height", "duration_ms")}
    kinds = [("image", "image/x-portable-pixmap"), ("audio", "audio/wav"),
             ("video", "video/mp4")]
    for i in range(n):
        kind, mime = kinds[i % 3]
        if kind == "image":
            w = 16 + (i % 8) * 4
            h = 12 + (i % 6) * 4
            payload = encode_ppm(synth_pixels(i, w, h, seed))
        elif kind == "audio":
            w = h = None
            payload = encode_wav(synth_samples(i, 1000 + i * 37, seed))
        else:
            w = h = None
            payload = hashlib.md5(f"media:{seed}:{i}".encode()).digest() * (4 + i % 5)
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(payload)
        rows["mime"].append(mime)
        rows["width"].append(w)
        rows["height"].append(h)
        rows["duration_ms"].append(1000 + i * 37 if kind != "image" else None)
    return pa.table(
        {
            "media_id": pa.array(rows["media_id"], pa.int64()),
            "kind": pa.array(rows["kind"], pa.string()),
            "payload": pa.array(rows["payload"], pa.binary()),
            "mime": pa.array(rows["mime"], pa.string()),
            "width": pa.array(rows["width"], pa.int32()),
            "height": pa.array(rows["height"], pa.int32()),
            "duration_ms": pa.array(rows["duration_ms"], pa.int32()),
        }
    )


def synth_samples(media_id: int, dur_ms: int, seed: int,
                  rate: int = 8000) -> "np.ndarray":
    """Deterministic int16 mono test signal: a media-specific sine plus
    seeded noise (pure fn of (seed, media_id) — same convention as
    synth_pixels)."""
    n = rate * dur_ms // 1000
    rng = np.random.RandomState((seed * 1_000_003 + media_id) % (2**31))
    t = np.arange(n, dtype=np.float64) / rate
    freq = 220.0 + (media_id % 16) * 55.0
    x = 0.5 * np.sin(2 * np.pi * freq * t) + 0.1 * rng.standard_normal(n)
    return np.clip(x * 32767.0, -32768, 32767).astype(np.int16)


class ResampleAudio:
    """Actor-pool stage: WAV payload -> WAV payload at ``rate`` Hz via
    nearest-sample selection (the audio analogue of ResizeImages — a real
    kernel over the real RIFF container; no interpolation, so output
    samples are a subset of input samples and stay exactly int16).
    Non-audio rows pass through untouched; non-WAV audio raises in strict
    mode (compressed formats need codec libraries)."""

    def __init__(self, rate: int = 4000, strict: bool = False) -> None:
        self.rate = rate
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        out = []
        for kind, p in zip(kinds, payloads):
            if kind != "audio" or p is None:
                out.append(p)
            elif is_wav(p):
                samples, rate_in = decode_wav(p)
                n_out = int(round(len(samples) * self.rate / rate_in))
                idx = np.minimum(
                    (np.arange(n_out, dtype=np.float64)
                     * rate_in / self.rate).astype(np.int64),
                    max(len(samples) - 1, 0))
                out.append(encode_wav(samples[idx], self.rate))
            elif self.strict:
                raise NotImplementedError(
                    "non-WAV audio resample needs a codec library")
            else:
                out.append(p)
        i = batch.schema.get_field_index("payload")
        return batch.set_column(i, "payload", pa.array(out, pa.binary()))


def phash_batch(batch: pa.Table, id_col: str = "media_id") -> pa.Table:
    """Perceptual hash per IMAGE row (functions/imagecodec.py:phash64);
    non-image / undecodable rows emit no row. Output (id, phash int64 —
    the uint64 bit pattern viewed signed, the engine's shuffle-key
    convention)."""
    from calendar_event_entity_extraction_ray.functions.imagecodec import (
        decode_ppm,
        is_ppm,
        phash64,
    )

    ids, hashes = [], []
    for i, kind, p in zip(batch.column(id_col).to_pylist(),
                          batch.column("kind").to_pylist(),
                          batch.column("payload").to_pylist()):
        if kind == "image" and p is not None and is_ppm(p):
            ids.append(i)
            hashes.append(phash64(decode_ppm(p)))
    return pa.table({
        id_col: pa.array(ids, pa.int64()),
        "phash": pa.array(
            np.array(hashes, dtype=np.uint64).view(np.int64)
            if hashes else [], pa.int64()),
    })


def synth_media_with_twins(n: int, twin_every: int = 5,
                           seed: int = 42) -> pa.Table:
    """synth_media_table plus PLANTED image near-dups: every
    ``twin_every``-th image row gets a twin (media_id + 1_000_000) whose
    pixels differ by a tiny deterministic perturbation — the pHash
    near-dup recall fixture."""
    base = synth_media_table(n, seed)
    ids = base.column("media_id").to_pylist()
    kinds = base.column("kind").to_pylist()
    payloads = base.column("payload").to_pylist()
    rows = {c: list(base.column(c).to_pylist()) for c in base.column_names}
    from calendar_event_entity_extraction_ray.functions.imagecodec import (
        decode_ppm,
        encode_ppm,
    )

    for i, kind, p in zip(ids, kinds, payloads):
        if kind != "image" or i % twin_every:
            continue
        px = decode_ppm(p).copy()
        px[0, 0] = (int(px[0, 0, 0]) + 3) % 256  # one-pixel nudge
        for c, v in zip(base.column_names,
                        [i + 1_000_000, "image", encode_ppm(px),
                         "image/x-portable-pixmap", px.shape[1],
                         px.shape[0], None]):
            rows[c].append(v)
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "mime": pa.array(rows["mime"], pa.string()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "duration_ms": pa.array(rows["duration_ms"], pa.int32()),
    })


def afp_batch(batch: pa.Table, id_col: str = "media_id") -> pa.Table:
    """Audio fingerprint per WAV row (functions/audiocodec.py:afp64);
    non-audio / undecodable rows emit no row."""
    from calendar_event_entity_extraction_ray.functions.audiocodec import (
        afp64,
        decode_wav,
        is_wav,
    )

    ids, hashes = [], []
    for i, kind, p in zip(batch.column(id_col).to_pylist(),
                          batch.column("kind").to_pylist(),
                          batch.column("payload").to_pylist()):
        if kind == "audio" and p is not None and is_wav(p):
            ids.append(i)
            hashes.append(afp64(decode_wav(p)[0]))
    return pa.table({
        id_col: pa.array(ids, pa.int64()),
        "afp": pa.array(
            np.array(hashes, dtype=np.uint64).view(np.int64)
            if hashes else [], pa.int64()),
    })


def synth_media_with_audio_twins(n: int, twin_every: int = 5,
                                 seed: int = 42) -> pa.Table:
    """synth_media_table plus PLANTED audio near-dups: every
    ``twin_every``-th audio row gets a twin (media_id + 2_000_000) whose
    samples carry a tiny deterministic dither — the afp near-dup recall
    fixture (the audio counterpart of synth_media_with_twins)."""
    from calendar_event_entity_extraction_ray.functions.audiocodec import (
        decode_wav,
        encode_wav,
    )

    base = synth_media_table(n, seed)
    rows = {c: list(base.column(c).to_pylist()) for c in base.column_names}
    for i, kind, p in zip(base.column("media_id").to_pylist(),
                          base.column("kind").to_pylist(),
                          base.column("payload").to_pylist()):
        if kind != "audio" or i % twin_every:
            continue
        s, rate = decode_wav(p)
        s = s.copy()
        s[:: 97] = np.clip(s[:: 97].astype(np.int64) + 40,
                           -32768, 32767).astype(s.dtype)
        for c, v in zip(base.column_names,
                        [i + 2_000_000, "audio", encode_wav(s, rate),
                         "audio/wav", None, None, None]):
            rows[c].append(v)
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "mime": pa.array(rows["mime"], pa.string()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "duration_ms": pa.array(rows["duration_ms"], pa.int32()),
    })
