"""Topology and configuration: node identities, roles, keys, DP data
bindings, thresholds, and curve profile.

Config files are JSON; `keygen` fills in the per-node key material.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

from .. import elgamal, protocols
from ..errors import ConfigError
from ..group import get_group
from ..ledger import VerificationPolicy, default_f_h
from ..rng import Drbg, default_rng


@dataclass
class Topology:
    querier_id: str
    cn_ids: tuple
    dp_ids: tuple
    vn_ids: tuple
    keys: dict = field(default_factory=dict)  # identity -> KeyPair
    dp_assignment: dict = field(default_factory=dict)  # dp -> cn
    dp_data: dict = field(default_factory=dict)  # dp -> list of row dicts
    profile: str = "ed25519"
    seed: int | None = None
    scale: int = elgamal.DEFAULT_SCALE
    max_records: int = 1
    max_message: int = 1 << 22
    thresholds: dict = field(default_factory=dict)
    cdp_params: dict = field(default_factory=dict)
    chain_path: str | None = None
    tree_shape: str = "binary"
    _collective: object = field(default=None, init=False, repr=False, compare=False)
    _noise: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a node may play CN and VN simultaneously; other overlaps are errors
        ids = (self.querier_id,) + tuple(self.dp_ids)
        ids += tuple(set(self.cn_ids) | set(self.vn_ids))
        if len(set(ids)) != len(ids):
            raise ConfigError("node identities must be unique across roles")
        for dp in self.dp_ids:
            cn = self.dp_assignment.get(dp)
            if cn not in self.cn_ids:
                raise ConfigError(f"DP {dp!r} not assigned to a known CN")

    @property
    def group(self):
        return get_group(self.profile)

    def generate_keys(self, rng=None):
        rng = rng or default_rng(self.seed)
        for identity in (self.querier_id, *self.cn_ids, *self.dp_ids, *self.vn_ids):
            if identity not in self.keys:
                self.keys[identity] = elgamal.KeyPair.generate(self.group, rng)
                self._collective = None
        return self

    def collective_key(self):
        if self._collective is None:
            self._collective = elgamal.collective_key(
                self.group, [self.keys[c].public for c in self.cn_ids], self.cn_ids
            )
        return self._collective

    def noise_params(self) -> tuple:
        """(epsilon, delta_f, theta, list_size) of the CDP noise list."""
        params = self.cdp_params
        return (params.get("epsilon", 1.0), params.get("delta_f", 1.0),
                params.get("theta", 0.5), params.get("list_size", 100))

    def initial_noise(self, scale: int | None = None) -> tuple:
        """The public list that starts the CDP shuffle chain
        (`protocols.initial_noise`), encoded at `scale`, the query's (by
        default the topology's, at which `Simulation.run` parses query text),
        and computed once per set of its inputs."""
        inputs = (self.group, *self.noise_params(), self.collective_key().public,
                  self.scale if scale is None else scale)
        if self._noise is None or self._noise[0] != inputs:
            self._noise = (inputs, tuple(protocols.initial_noise(*inputs)[1]))
        return self._noise[1]

    def policy(self) -> VerificationPolicy:
        n = len(self.vn_ids)
        return VerificationPolicy(
            t=float(self.thresholds.get("t", 1.0)),
            t_sub=float(self.thresholds.get("t_sub", 1.0)),
            f_h=int(self.thresholds.get("f_h", default_f_h(n))),
            n_vn=n,
        )

    def node_rng(self, identity: str):
        if self.seed is None:
            return default_rng(None)
        return Drbg(f"{self.seed}/{identity}")

    @classmethod
    def build(cls, n_cns=3, n_dps=10, n_vns=3, profile="ed25519", seed=None, **kw):
        """Convenience constructor with generated identities and assignments."""
        cns = tuple(f"CN{i + 1}" for i in range(n_cns))
        dps = tuple(f"DP{i + 1}" for i in range(n_dps))
        vns = tuple(f"VN{i + 1}" for i in range(n_vns))
        assignment = {dp: cns[i % n_cns] for i, dp in enumerate(dps)}
        topo = cls(
            querier_id="Q",
            cn_ids=cns,
            dp_ids=dps,
            vn_ids=vns,
            dp_assignment=assignment,
            profile=profile,
            seed=seed,
            **kw,
        )
        return topo.generate_keys()

    # ----- config file round trip -----

    @classmethod
    def from_config(cls, path_or_dict) -> "Topology":
        if isinstance(path_or_dict, (str, os.PathLike)):
            with open(path_or_dict) as fh:
                cfg = json.load(fh)
            base_dir = os.path.dirname(os.path.abspath(path_or_dict))
        else:
            cfg = path_or_dict
            base_dir = "."
        try:
            dps = cfg["dps"]
            topo = cls(
                querier_id=cfg.get("querier", "Q"),
                cn_ids=tuple(cfg["cns"]),
                dp_ids=tuple(dps),
                vn_ids=tuple(cfg["vns"]),
                dp_assignment={dp: spec["cn"] for dp, spec in dps.items()},
                profile=cfg.get("profile", "ed25519"),
                seed=cfg.get("seed"),
                scale=int(cfg.get("scale", elgamal.DEFAULT_SCALE)),
                max_records=int(cfg.get("max_records", 1)),
                max_message=int(cfg.get("max_message", 1 << 22)),
                thresholds=cfg.get("thresholds", {}),
                cdp_params=cfg.get("cdp", {}),
                chain_path=cfg.get("chain_path"),
                tree_shape=cfg.get("tree_shape", "binary"),
            )
        except KeyError as exc:
            raise ConfigError(f"config missing field {exc}") from exc
        group = topo.group
        for identity, material in cfg.get("keys", {}).items():
            sk = group.decode_scalar(bytes.fromhex(material["private"]))
            pk = group.mul(sk, group.base())
            group.precompute(pk)
            topo.keys[identity] = elgamal.KeyPair(sk, pk)
        for dp, spec in dps.items():
            if "data" in spec:
                data_path = spec["data"]
                if not os.path.isabs(data_path):
                    data_path = os.path.join(base_dir, data_path)
                topo.dp_data[dp] = load_records(data_path)
            elif "rows" in spec:
                topo.dp_data[dp] = spec["rows"]
        return topo

    def to_config(self) -> dict:
        group = self.group
        cfg = {
            "querier": self.querier_id,
            "cns": list(self.cn_ids),
            "vns": list(self.vn_ids),
            "dps": {dp: {"cn": self.dp_assignment[dp]} for dp in self.dp_ids},
            "profile": self.profile,
            "scale": self.scale,
            "max_records": self.max_records,
            "max_message": self.max_message,
            "thresholds": self.thresholds,
            "cdp": self.cdp_params,
            "tree_shape": self.tree_shape,
        }
        if self.seed is not None:
            cfg["seed"] = self.seed
        if self.chain_path:
            cfg["chain_path"] = self.chain_path
        if self.keys:
            cfg["keys"] = {
                identity: {"private": group.encode_scalar(kp.private).hex()}
                for identity, kp in self.keys.items()
            }
        return cfg


def load_records(path: str) -> list[dict]:
    """DP record ingestion: delimiter-separated file with a header row naming
    attributes; values parsed as numbers."""
    rows = []
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delimiter = ";" if sample.count(";") > sample.count(",") else ","
        for row in csv.DictReader(fh, delimiter=delimiter):
            parsed = {}
            for key, value in row.items():
                if key is None:
                    continue
                key = key.strip()
                value = (value or "").strip()
                try:
                    parsed[key] = int(value)
                except ValueError:
                    try:
                        parsed[key] = float(value)
                    except ValueError:
                        parsed[key] = value
            rows.append(parsed)
    return rows
