"""Construct files: exact round-trip serialization.

Coefficients are stored as shortest round-trip decimal strings (pairs of
real and imaginary parts), so reading a file back reproduces the floats
bit for bit and byte-identical files mean identical constructs.  The
derived data (implicit equations, flexes, the identification map) is not
stored; it is re-derived on load and re-validated by the construct
guards, which keeps files small and makes tampering loud.
"""

from __future__ import annotations

import cmath
import json

from .cubics import Construct, CubicMap, NodalCubic, intersect, make_construct, nodal_cubic
from .errors import SCHEMA_VERSION, decode_field, int_value, load_json
from .numerics import DEFAULT_TOL, Poly, Tolerances


def _enc_complex(z: complex) -> list[str]:
    z = complex(z)
    return [repr(float(z.real)), repr(float(z.imag))]


def _dec_complex(pair) -> complex:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(part, str) for part in pair)):
        raise TypeError(f"wants a pair of decimal strings, got {pair!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite number {pair!r}")
    return z


def _enc_poly(p: Poly) -> list[list[str]]:
    return [_enc_complex(c) for c in p.coef]


def _dec_poly(data) -> Poly:
    return Poly([_dec_complex(pair) for pair in data])


def _enc_cubic(c: NodalCubic) -> dict:
    return {
        "x": _enc_poly(c.gamma.x),
        "y": _enc_poly(c.gamma.y),
        "w": _enc_poly(c.gamma.w),
        "node": [_enc_complex(c.node[0]), _enc_complex(c.node[1])],
    }


def _dec_cubic(data) -> tuple[CubicMap, tuple[complex, complex]]:
    gamma = CubicMap(_dec_poly(data["x"]), _dec_poly(data["y"]), _dec_poly(data["w"]))
    u, v = data["node"]
    return gamma, (_dec_complex(u), _dec_complex(v))


def construct_to_json(c: Construct) -> str:
    payload = {
        "kind": "construct",
        "schema": SCHEMA_VERSION,
        "P": _enc_cubic(c.p),
        "Q": _enc_cubic(c.q),
        "intersection_index": c.n_index,
        "b": _enc_complex(c.b_param),
        "seed": c.seed,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def construct_from_json(text: str, tol: Tolerances = DEFAULT_TOL) -> Construct:
    data = load_json(text, ("construct",), "construct")
    p_map, p_node = decode_field(data, "P", _dec_cubic)
    q_map, q_node = decode_field(data, "Q", _dec_cubic)
    n_index = decode_field(data, "intersection_index", int_value)
    b = decode_field(data, "b", _dec_complex)
    seed = decode_field(data, "seed", lambda v: v if v is None else int_value(v)) if "seed" in data else None
    p = nodal_cubic(p_map, node=p_node, tol=tol)
    q = nodal_cubic(q_map, node=q_node, tol=tol)
    return make_construct(p, q, intersect(p, q, tol), n_index, b, tol, seed=seed)
