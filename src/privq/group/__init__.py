"""Prime-order group profiles with optional bilinear pairing.

Profiles:
  - "ed25519":    fast, no pairing (range proofs unavailable).
  - "pairing128": supersingular pairing curve, 128-bit security.
  - "pairing80":  same construction at reduced size, for fast test runs.

All profiles expose: order, base(), identity(), random_scalar(rng),
mul(k, P), msm(pairs), precompute(P), walk(start, step, n), and point and
scalar encode-decode; pairing profiles additionally pair(P, Q),
gt_msm(pairs), gt_one(), decode_gt().

Points of every profile follow one rule (`curve.Point`): a point holds its
affine coordinates and its group, so `encode()`, `==` and `hash` never
invert, and each operation that makes a point runs in projective
coordinates and normalizes its result once.

Scalar multiplication runs on signed digits (`mult`): width-5 wNAF Straus
for few terms, signed-window Pippenger with the window priced from the
term count for many, and a signed 5-bit comb for points given a table by
`precompute` (the base and every key). `msm` walks the comb of each term
that has one into the same accumulator as the other terms, and folds a
scalar above order/2 into a short negative one. Tables and MSM inputs keep
a cheaper-to-add form: cached (Y+X, Y-X, 2Z, 2dT) on Ed25519, Z = 1 on the
pairing curve.

`decode_point`, `decode_scalar` and `decode_gt` read fixed-size canonical
encodings (through `serial.Reader` on the wire) and raise MalformedProof
for any other input. `decode_point` accepts any curve point and does not
check membership in the prime-order subgroup, so a decoded point may carry
a small-order component; ROADMAP item 2 (ristretto255 as the wire group)
closes this.
"""

from __future__ import annotations

from ..errors import PairingUnavailable
from .dlog import DlogTable

PROFILES = ("ed25519", "pairing128", "pairing80")

_cache = {}


def get_group(profile: str = "ed25519"):
    """Return the (process-wide) group instance for a profile name."""
    if profile in _cache:
        return _cache[profile]
    if profile == "ed25519":
        from .ed25519 import Ed25519Group

        group = Ed25519Group()
    elif profile in ("pairing128", "pairing80"):
        from . import pairing

        group = pairing.build(profile)
    else:
        raise ValueError(f"unknown curve profile {profile!r}; choose from {PROFILES}")
    _cache[profile] = group
    return group


def require_pairing(group):
    """Raise PairingUnavailable unless the group supports pairings."""
    if not group.has_pairing:
        raise PairingUnavailable(
            f"profile {group.name!r} has no pairing; range proofs need a pairing profile"
        )
    return group


__all__ = ["get_group", "require_pairing", "DlogTable", "PROFILES"]
