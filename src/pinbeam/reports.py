"""Machine-readable outputs: certificate/exhaustion JSON, harness JSON, CSV.

Every JSON file is written compact, on one line (``write_json``).  Reals in
certificate and exhaustion files are decimal strings with 17 significant
digits, which round-trips IEEE doubles bit-for-bit.  Each file carries
its ``schema`` and ``outcome``, and its reader refuses others.  Both files
(schema 2) hold their report's columns as they stand: a certificate's
``t``, ``u``, ``hit_x`` and ``hit_y`` beside its scalars; an exhaustion's
point k (``x[k]``, ``y[k]``) and ``t[j-1][k]`` its violating scale in
block j, over the dyadic ladder ``ScaleLadder`` of its depth.
Run reports carry a config echo, timings, the tool version, and input
digests so an outcome can be reproduced from the report alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .harness import DecompositionReport, SmallTReport, SqSumReport
from .prospect import BeamCertificate, ExhaustionReport, ScaleLadder

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

CERTIFICATE_SCHEMA = 2  # schema 1: no "schema" key, and one object per sample
CERTIFICATE_COLUMNS = ("t", "u", "hit_x", "hit_y")
EXHAUSTION_SCHEMA = 2
HARNESS_SCHEMA = 2  # schema 1: no "schema" key, and one sq_sums object


def encode_real(x: float) -> str:
    return format(float(x), ".17g")


def _pt(p) -> list[str]:
    return [encode_real(p[0]), encode_real(p[1])]


@contextmanager
def _reading(d, outcome: str, schema: int):
    """Refuse a file of another schema or outcome (no "schema" is schema 1),
    then report any error of the body as a mismatch of that schema."""
    found = d.get("schema", 1) if isinstance(d, dict) else None
    if found != schema:
        raise ValueError(f"{outcome} JSON has schema {found!r}; only schema {schema} is read")
    if d.get("outcome") != outcome:
        raise ValueError(f"{outcome} JSON expected, the file holds outcome {d.get('outcome')!r}")
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{outcome} JSON does not match schema {schema}: {exc}") from exc


def certificate_to_dict(cert: BeamCertificate) -> dict:
    columns = np.array([getattr(cert, k) for k in CERTIFICATE_COLUMNS], dtype=np.float64)
    return {
        "schema": CERTIFICATE_SCHEMA,
        "outcome": "certificate",
        "beta": encode_real(cert.beta),
        "eta": encode_real(cert.eta),
        "theta": encode_real(cert.theta),
        "point": _pt(cert.point),
        "j": cert.j,
        "t_interval": _pt(cert.t_interval),
        "a_interval": _pt(cert.a_interval),
        **dict(zip(CERTIFICATE_COLUMNS, _encode_reals(columns))),
    }


def certificate_from_dict(d: dict) -> BeamCertificate:
    with _reading(d, "certificate", CERTIFICATE_SCHEMA):
        if type(d["j"]) is not int:
            raise ValueError(f"j must be an integer, got {d['j']!r}")
        return BeamCertificate(
            beta=float(d["beta"]),
            eta=float(d["eta"]),
            theta=float(d["theta"]),
            point=(float(d["point"][0]), float(d["point"][1])),
            j=d["j"],
            t_interval=(float(d["t_interval"][0]), float(d["t_interval"][1])),
            a_interval=(float(d["a_interval"][0]), float(d["a_interval"][1])),
            **{k: tuple(map(float, d[k])) for k in CERTIFICATE_COLUMNS},
        )


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
    with _reading(d, "exhaustion", EXHAUSTION_SCHEMA):
        ladder = ScaleLadder(len(d["ladder"]))
        if [tuple(map(float, pair)) for pair in d["ladder"]] != list(ladder.entries):
            raise ValueError(f"ladder is not the dyadic ladder of depth {ladder.depth}")
        x, y, *t = (tuple(map(float, col)) for col in (d["x"], d["y"], *d["t"]))
        return ExhaustionReport(ladder, x, y, tuple(t), int(d["scanned"]))


def harness_to_dict(
    decompositions: list[DecompositionReport],
    smallt: list[SmallTReport],
    sq_sums: list[SqSumReport] | None,
) -> dict:
    return {
        "schema": HARNESS_SCHEMA,
        "decompositions": [asdict(r) for r in decompositions],
        "smallt": [
            {"j": r.j, "rows": [{"rho": rho, "s": s, "s_over_rho": q} for rho, s, q in r.rows]}
            for r in smallt
        ],
        "sq_sums": [asdict(r) for r in sq_sums] if sq_sums is not None else None,
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

    def __post_init__(self):
        for name, typ in self.key_types().items():
            value = getattr(self, name)
            if typ is float and value is not None and not math.isfinite(value):
                raise ValueError(f"config key {name!r} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def key_types(cls) -> dict[str, type]:
        """Each key's annotated type, ``float | None`` read as float."""
        return {k: (typing.get_args(t) or (t,))[0] for k, t in typing.get_type_hints(cls).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Keys left out keep their defaults.  A JSON int serves for a real (a
        bool does not), and null only where the default is null."""
        for name, typ in cls.key_types().items():
            value = d.get(name)
            ok = type(value) in ((int, float) if typ is float else (typ,))
            if name in d and not (ok or value is None and getattr(cls, name) is None):
                raise ValueError(f"config key {name!r} must be {typ.__name__}, got {value!r}")
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
    version: str = __version__

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
    """Write obj as compact JSON; a non-finite real raises ValueError, writing nothing."""
    # Compact separators (no indent) keep json on its C encoder.
    atomic_write_text(path, json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")
