"""Problem instances: dimensions, consumption matrix, inventories, price box, demand model."""

import json
import math
import numbers
import dataclasses
import numpy as np
from dataclasses import dataclass
from typing import Optional

from .demand import DemandModel, LogitDemand, LinearDemand

NOISE_MODES = ("multinomial", "none")


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
        A = np.asarray(self.A, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "gamma", gamma)
        M, N = A.shape
        if N != self.model.n_products:
            raise ValueError("A column count must equal the number of products")
        if gamma.shape != (M,):
            raise ValueError("gamma length must equal the number of resources")
        if M > N:
            raise ValueError("more resource types than product types is unsupported")
        # comparisons on Python floats are the cheap test here; NaN fails each of them
        if not all(0 <= x < math.inf for x in A.ravel().tolist()):
            raise ValueError("consumption matrix A must be finite and nonnegative")
        if np.linalg.matrix_rank(A) < M:
            raise ValueError("consumption matrix must have full row rank")
        if not all(0 < x < math.inf for x in gamma.tolist()):
            raise ValueError("gamma must be finite and strictly positive")
        if self.T < 1:
            raise ValueError("horizon must be at least 1")
        if not -math.inf < self.price_min < self.price_max < math.inf:
            raise ValueError("price box must be finite and non-degenerate")
        if self.noise not in NOISE_MODES:
            raise ValueError(f"noise must be one of {NOISE_MODES}")
        if self.noise == "multinomial" and isinstance(self.model, LinearDemand):
            # D is affine, so its extremes over the box sit at the box corners.
            a, B, lo, hi = self.model.a, self.model.B, self.price_min, self.price_max
            c = B.sum(axis=0)
            if (np.any(a - np.maximum(B * lo, B * hi).sum(axis=1) < 0)
                    or a.sum() - np.minimum(c * lo, c * hi).sum() > 1):
                raise ValueError("multinomial noise needs linear demand in the probability "
                                 "simplex (D >= 0, sum D <= 1) on the whole price box")
        A.flags.writeable = False
        gamma.flags.writeable = False

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
        return dataclasses.replace(self, T=int(T))

    def to_dict(self) -> dict:
        if isinstance(self.model, LogitDemand):
            demand = {"type": "logit", "a": self.model.a.tolist(), "b": self.model.b.tolist()}
        elif isinstance(self.model, LinearDemand):
            demand = {"type": "linear", "a": self.model.a.tolist(), "B": self.model.B.tolist()}
        else:
            raise ValueError(f"cannot serialize demand model {type(self.model).__name__}")
        return {
            "N": self.N,
            "M": self.M,
            "A": np.asarray(self.A).ravel().tolist(),
            "gamma": self.gamma.tolist(),
            "T": self.T,
            "price_min": self.price_min,
            "price_max": self.price_max,
            "demand": demand,
            "noise": self.noise,
        }


def _is_number(x) -> bool:
    """A real other than a bool; the type test spares floats and ints the ABC check."""
    return type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integral(x) -> bool:
    """An integer or an integral float: the rule for every integer a document holds."""
    return _is_number(x) and (isinstance(x, numbers.Integral) or float(x).is_integer())


def _is_vector(x, n: Optional[int] = None) -> bool:
    listed = isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim == 1
    return listed and (n is None or len(x) == n) and all(map(_is_number, x))


def _require(doc: str, key: str, ok: bool, what: str, val) -> None:
    """The one rejection of a document value: it names the document and the key."""
    if not ok:
        shown = val.tolist() if isinstance(val, np.ndarray) else val
        raise ValueError(f"{doc} key {key!r} must be {what}, not {shown!r}")


def _require_object(what: str, doc) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")


def instance_from_dict(doc: dict) -> Instance:
    _require_object("an instance document", doc)
    try:
        for key in ("N", "M", "T"):
            _require("instance", key, _is_integral(doc[key]), "an integer", doc[key])
        N, M, T = (int(doc[key]) for key in ("N", "M", "T"))
        for key, n in (("A", M * N), ("gamma", M)):
            _require("instance", key, _is_vector(doc[key], n), f"a list of {n} numbers", doc[key])
        for key in ("price_min", "price_max"):
            _require("instance", key, _is_number(doc[key]), "a number", doc[key])
        demand = doc["demand"]
        _require("instance", "demand", isinstance(demand, dict), "an object", demand)
        kind = demand["type"]
        if kind == "logit":
            model = LogitDemand(demand["a"], demand["b"])
        elif kind == "linear":
            model = LinearDemand(demand["a"], demand["B"])
        else:
            raise ValueError(f"unknown demand type {kind!r}")
        return Instance(
            model=model,
            A=np.asarray(doc["A"], dtype=float).reshape(M, N),
            gamma=np.asarray(doc["gamma"], dtype=float),
            T=T,
            price_min=float(doc["price_min"]),
            price_max=float(doc["price_max"]),
            noise=doc.get("noise", "multinomial"),
        )
    except KeyError as exc:
        raise ValueError(f"instance document missing key {exc}") from exc


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def example_logit_instance(T: int = 100_000, noise: str = "multinomial") -> Instance:
    """Two-product, two-resource logit instance used throughout the test suite."""
    return Instance(
        model=LogitDemand([0.4, 0.8], [1.5, 2.0]),
        A=np.array([[1.0, 1.0], [0.0, 2.0]]),
        gamma=np.array([0.1, 0.1]),
        T=T,
        price_min=0.8,
        price_max=5.0,
        noise=noise,
    )
