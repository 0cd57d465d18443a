"""Problem instances: dimensions, consumption matrix, inventories, price box, demand model."""

import json
import math
import numbers
import dataclasses
import numpy as np
from dataclasses import dataclass
from typing import Optional

from .demand import DemandModel, DomainError, LogitDemand, LinearDemand

NOISE_MODES = ("multinomial", "none")
# demand type: (model, {parameter in argument order: a list of N rows, not of N numbers})
DEMAND_TYPES = {"logit": (LogitDemand, {"a": False, "b": False}),
                "linear": (LinearDemand, {"a": False, "B": True})}


@dataclass(frozen=True)
class Instance:
    """Full problem specification. Inventory C_j = gamma_j * T is consumed at
    rate A @ y each period; once any resource cannot serve a realized purchase,
    the market shuts off permanently."""

    model: DemandModel
    A: np.ndarray           # (M, N), nonnegative, full row rank
    gamma: np.ndarray       # (M,), units per period
    T: int
    price_min: float
    price_max: float
    noise: str = "multinomial"

    def __post_init__(self):
        """The one check of an instance, read or built: `_require` names the refused key."""
        A = np.asarray(self.A, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        T, lo, hi, noise = self.T, self.price_min, self.price_max, self.noise
        N = self.model.n_products
        # comparisons on Python floats are the cheap test here; NaN fails each of them
        _require("instance", "A", A.shape[1:] == (N,) and 1 <= len(A) <= N
                 and all(0 <= x < math.inf for x in A.ravel().tolist()) and _full_row_rank(A),
                 f"a finite nonnegative full-row-rank matrix of {N} columns, at most {N} rows", A)
        M = len(A)
        _require("instance", "gamma", gamma.shape == (M,)
                 and all(0 < x < math.inf for x in gamma.tolist()),
                 f"a list of {M} numbers, each finite and positive", gamma)
        _require("instance", "T", _is_integral(T) and T >= 1, "an integer of at least 1", T)
        _require("instance", "price_min", _is_number(lo) and -math.inf < lo < math.inf,
                 "a number (finite)", lo)
        _require("instance", "price_max", _is_number(hi) and lo < hi < math.inf,
                 "a number (finite, above price_min)", hi)
        _require("instance", "noise", noise in NOISE_MODES, f"one of {NOISE_MODES}", noise)
        if noise == "multinomial" and isinstance(self.model, LinearDemand):
            # D is affine, so its extremes over the box sit at the box corners.
            a, B, c = self.model.a, self.model.B, self.model.B.sum(axis=0)
            extremes = {"min D": float((a - np.maximum(B * lo, B * hi).sum(axis=1)).min()),
                        "max sum D": float(a.sum() - np.minimum(c * lo, c * hi).sum())}
            _require("instance", "demand", extremes["min D"] >= 0 and extremes["max sum D"] <= 1,
                     "a linear demand in the probability simplex (D >= 0, sum D <= 1) on "
                     "the whole price box under multinomial noise", extremes)
        A.flags.writeable = False
        gamma.flags.writeable = False
        for name, val in (("A", A), ("gamma", gamma), ("T", int(T)),
                          ("price_min", float(lo)), ("price_max", float(hi))):
            object.__setattr__(self, name, val)

    @property
    def N(self) -> int:
        return self.A.shape[1]

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def capacity(self) -> np.ndarray:
        return self.gamma * self.T

    @property
    def price_box(self):
        return (self.price_min, self.price_max)

    def with_horizon(self, T: int) -> "Instance":
        return dataclasses.replace(self, T=T)

    def to_dict(self) -> dict:
        kinds = [k for k, (cls, _) in DEMAND_TYPES.items() if isinstance(self.model, cls)]
        _require("instance", "demand", bool(kinds), "a logit or linear model",
                 type(self.model).__name__)
        demand = {"type": kinds[0]}
        demand.update((p, getattr(self.model, p).tolist()) for p in DEMAND_TYPES[kinds[0]][1])
        return {"N": self.N, "M": self.M, "A": self.A.ravel().tolist(),
                "gamma": self.gamma.tolist(), "T": self.T, "price_min": self.price_min,
                "price_max": self.price_max, "demand": demand, "noise": self.noise}


def _full_row_rank(A: np.ndarray) -> bool:
    """matrix_rank(A) == len(A) for finite A, len(A) <= A.shape[1], without its wrapper."""
    s = np.linalg.svd(A, compute_uv=False).tolist()
    return s[-1] > s[0] * (A.shape[1] * 2.0 ** -52)   # 2 ** -52: float64's eps


def _is_number(x) -> bool:
    """A real other than a bool; the type test spares floats and ints the ABC check."""
    return type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integral(x) -> bool:
    """An integer or an integral float: the rule for every integer a document holds."""
    return type(x) is int or _is_number(x) and float(x).is_integer()


def _is_vector(x, n: Optional[int] = None) -> bool:
    listed = isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim == 1
    return listed and (n is None or len(x) == n) and all(map(_is_number, x))


def _require(doc: str, key: str, ok: bool, what: str, val) -> None:
    """The one rejection of a document value: it names the document and the key."""
    if not ok:
        shown = val.tolist() if isinstance(val, np.ndarray) else val
        raise ValueError(f"{doc} key {key!r} must be {what}, not {shown!r}")


def _read(what: str, doc, required, optional=()) -> None:
    """The one key rule of every document: a JSON object with each required key and no
    other key than the optional ones. A refusal names the key."""
    if not isinstance(doc, dict):
        article = "an" if what[0] in "aeiou" else "a"
        raise ValueError(f"{article} {what} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc).difference(required, optional))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} missing keys {missing}")


def _demand_from_dict(demand, N: int) -> DemandModel:
    """The model of a document's demand object; each of its values is refused under key 'demand'."""
    _require("instance", "demand", isinstance(demand, dict), "an object", demand)
    _read("demand object", demand, ("type",), demand)   # the type names the other keys
    kind = demand["type"]
    _require("instance", "demand", isinstance(kind, str) and kind in DEMAND_TYPES,
             "of type 'logit' or 'linear'", kind)
    model, params = DEMAND_TYPES[kind]
    _read("demand object", demand, ("type", *params))
    for name, rows in params.items():
        val = demand[name]
        ok = (isinstance(val, list) and len(val) == N and all(_is_vector(r, N) for r in val)
              if rows else _is_vector(val, N))
        _require("instance", "demand", ok, f"an object whose {name!r} is a list of {N} "
                 + (f"rows of {N} numbers" if rows else "numbers"), val)
    try:
        return model(*(demand[name] for name in params))
    except DomainError as exc:
        _require("instance", "demand", False, f"a valid {kind} model ({exc})", demand)


def instance_from_dict(doc: dict) -> Instance:
    """The instance a document describes; `Instance` checks what the reader need not convert."""
    _read("instance document", doc, ("N", "M", "A", "gamma", "T", "price_min", "price_max",
                                     "demand"), ("noise",))
    for key in ("N", "M"):
        _require("instance", key, _is_integral(doc[key]), "an integer", doc[key])
    N, M = int(doc["N"]), int(doc["M"])
    for key, n in (("A", M * N), ("gamma", M)):
        _require("instance", key, _is_vector(doc[key], n), f"a list of {n} numbers", doc[key])
    return Instance(_demand_from_dict(doc["demand"], N),
                    np.asarray(doc["A"], dtype=float).reshape(M, N),
                    np.asarray(doc["gamma"], dtype=float), doc["T"], doc["price_min"],
                    doc["price_max"], doc.get("noise", "multinomial"))


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def example_logit_instance(T: int = 100_000, noise: str = "multinomial") -> Instance:
    """Two-product, two-resource logit instance used throughout the test suite."""
    return Instance(model=LogitDemand([0.4, 0.8], [1.5, 2.0]), A=[[1.0, 1.0], [0.0, 2.0]],
                    gamma=[0.1, 0.1], T=T, price_min=0.8, price_max=5.0, noise=noise)
