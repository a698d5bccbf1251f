"""Machine-readable outputs: certificate/exhaustion JSON, harness JSON, CSV.

Every JSON file is written compact, on one line (``write_json``).  Reals in
certificate and exhaustion files are decimal strings with 17 significant
digits, which round-trips IEEE doubles bit-for-bit.  An exhaustion file
(schema 2) holds the columns of ``ExhaustionReport`` as they stand: point
k is (``x[k]``, ``y[k]``) and ``t[j-1][k]`` its violating scale in block j.
Run reports carry a config echo, timings, the tool version, and input
digests so an outcome can be reproduced from the report alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .harness import DecompositionReport, SmallTReport, SqSumReport
from .prospect import BeamCertificate, BeamSample, ExhaustionReport, ScaleLadder

__all__ = [
    "RunConfig",
    "RunReport",
    "atomic_write_text",
    "certificate_from_dict",
    "certificate_to_dict",
    "decay_csv",
    "encode_real",
    "exhaustion_from_dict",
    "exhaustion_to_dict",
    "grid_csv",
    "harness_to_dict",
    "sha256_file",
]

TOOL_VERSION = "0.1.0"
EXHAUSTION_SCHEMA = 2


def encode_real(x: float) -> str:
    return format(float(x), ".17g")


def _pt(p) -> list[str]:
    return [encode_real(p[0]), encode_real(p[1])]


def certificate_to_dict(cert: BeamCertificate) -> dict:
    return {
        "beta": encode_real(cert.beta),
        "eta": encode_real(cert.eta),
        "theta": encode_real(cert.theta),
        "point": _pt(cert.point),
        "j": cert.j,
        "t_interval": [encode_real(cert.t_interval[0]), encode_real(cert.t_interval[1])],
        "a_interval": [encode_real(cert.a_interval[0]), encode_real(cert.a_interval[1])],
        "t_grid_ratio": encode_real(cert.t_grid_ratio),
        "samples": [
            {
                "t": encode_real(s.t),
                "a": encode_real(s.a),
                "u": encode_real(s.u),
                "hit": _pt(s.hit),
            }
            for s in cert.samples
        ],
        "gap": [encode_real(cert.gap[0]), encode_real(cert.gap[1])],
    }


def certificate_from_dict(d: dict) -> BeamCertificate:
    try:
        return BeamCertificate(
            beta=float(d["beta"]),
            eta=float(d["eta"]),
            theta=float(d["theta"]),
            point=(float(d["point"][0]), float(d["point"][1])),
            j=int(d["j"]),
            t_interval=(float(d["t_interval"][0]), float(d["t_interval"][1])),
            a_interval=(float(d["a_interval"][0]), float(d["a_interval"][1])),
            t_grid_ratio=float(d["t_grid_ratio"]),
            samples=tuple(
                BeamSample(
                    t=float(s["t"]),
                    a=float(s["a"]),
                    u=float(s["u"]),
                    hit=(float(s["hit"][0]), float(s["hit"][1])),
                )
                for s in d["samples"]
            ),
            gap=(float(d["gap"][0]), float(d["gap"][1])),
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"certificate JSON does not match schema: {exc}") from exc


def _encode_reals(values: np.ndarray) -> list:
    """``encode_real`` over an array, formatting each distinct bit pattern once.

    Keys are the float64 bits, so 0.0 and -0.0 stay apart and NaN is found.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([encode_real(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(values.shape)].tolist()


def exhaustion_to_dict(rep: ExhaustionReport) -> dict:
    text = _encode_reals(np.array([rep.x, rep.y, *rep.t], dtype=np.float64))
    return {
        "schema": EXHAUSTION_SCHEMA,
        "outcome": "exhaustion",
        "ladder": [[encode_real(b), encode_real(c)] for b, c in rep.ladder.entries],
        "scanned": rep.scanned,
        "x": text[0],
        "y": text[1],
        "t": text[2:],
    }


def exhaustion_from_dict(d: dict) -> ExhaustionReport:
    schema = d.get("schema") if isinstance(d, dict) else None
    if schema != EXHAUSTION_SCHEMA:
        raise ValueError(
            f"exhaustion JSON has schema {schema!r}; only schema {EXHAUSTION_SCHEMA} is read"
        )
    try:
        ladder = ScaleLadder(tuple((float(b), float(c)) for b, c in d["ladder"]))
        x, y, *t = (tuple(map(float, col)) for col in (d["x"], d["y"], *d["t"]))
        return ExhaustionReport(ladder, x, y, tuple(t), int(d["scanned"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"exhaustion JSON does not match schema {schema}: {exc}") from exc


def harness_to_dict(
    decompositions: list[DecompositionReport],
    smallt: list[SmallTReport],
    sq_sums: SqSumReport | None,
) -> dict:
    return {
        "decompositions": [asdict(r) for r in decompositions],
        "smallt": [
            {"j": r.j, "rows": [{"rho": rho, "s": s, "s_over_rho": q} for rho, s, q in r.rows]}
            for r in smallt
        ],
        "sq_sums": asdict(sq_sums) if sq_sums is not None else None,
    }


# ---------------------------------------------------------------------------
# CSV outputs.
# ---------------------------------------------------------------------------

DECAY_HEADER = ["i_minus_n", "ratio", "p", "seed"]
GRID_HEADER = [
    "j", "rho", "lhs", "term1", "term2", "term3", "term4", "tail",
    "triangle_ok", "triangle_slack", "smallt_s", "smallt_s_over_rho",
]


def decay_csv(rows, p: float, seed: int) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(DECAY_HEADER)
    for gap, ratio in rows:
        w.writerow([gap, encode_real(ratio), encode_real(p), seed])
    return buf.getvalue()


def grid_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(GRID_HEADER)
    for r in rows:
        w.writerow([r[k] for k in GRID_HEADER])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Run configuration and report envelope.
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    beta: float = 2.0
    eta: float = 1.0
    theta: float = 2.4
    delta: float = 0.4
    n: int = 512
    nodes: int = 128
    plateau_frac: float = 0.5
    cprime: float = 1.0
    p: float = 3.0
    alpha: float = 0.1
    c0: float = 0.25
    rho: float | None = None
    tau: float | None = None
    seed: int = 0
    t_per_octave: int = 16
    subsample: int | None = None
    outdir: str = "."

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    def resolved_outdir(self) -> Path:
        return Path(os.environ.get("PINBEAM_OUTDIR", self.outdir))


@dataclass
class RunReport:
    config: RunConfig
    outcome: str
    timings: dict = field(default_factory=dict)
    input_digests: dict = field(default_factory=dict)
    version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return asdict(self)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj: dict) -> None:
    # Compact separators (no indent) keep json on its C encoder.
    atomic_write_text(path, json.dumps(obj, separators=(",", ":")) + "\n")
