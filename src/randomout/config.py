"""Run configuration: typed fields, strict dict round-trip, and a stable
content hash used to name run directories."""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import get_args

from .models import ARCHITECTURES
from .optim import OPTIMIZERS

CONDITIONS = ("base", "randomout", "batchnorm")
HASH_CHARS = 12
# The DatasetCfg fields each kind reads besides ``kind``; the others must keep
# their defaults, since they would rename the run without changing its data.
DATASET_FIELDS = {"synth": ("n_pos", "n_neg"), "idx": ("paths",), "cifar10": ("paths", "max_per_class")}


# Accepted JSON values per scalar field type. A float field takes an int
# as given, without converting it, so configs that spell 1.0 as 1 keep
# their hash.
_SCALAR_TYPES = {
    int: ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    bool: ("a bool", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _check_finite(name, value):
    """A NaN or infinite number passes every ordered comparison check, so reject it first."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_fields(kind, d, cls):
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ValueError(f"unknown {kind} field(s): {', '.join(unknown)}")
    for name, value in d.items():
        options = get_args(types[name]) or (types[name],)  # int | None -> (int, NoneType)
        scalar = next((t for t in options if t in _SCALAR_TYPES), None)
        if scalar is None or (value is None and type(None) in options):
            continue
        what, ok = _SCALAR_TYPES[scalar]
        if not ok(value):
            raise ValueError(f"{kind} field {name!r} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ModelCfg:
    name: str = "cratercnn"
    width: int = 4

    def __post_init__(self):
        if self.name not in ARCHITECTURES:
            raise ValueError(f"unknown model {self.name!r}, expected one of {tuple(ARCHITECTURES)}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class DatasetCfg:
    """Data source. kind 'synth' generates crater-like images on the fly
    (n_pos ring + n_neg blob examples, then a stratified 50/50 split);
    'idx' and 'cifar10' read the files named in `paths` and split the same
    way. max_per_class caps cifar10 loading for desk-scale subsets. A field
    the kind does not read (see DATASET_FIELDS) must keep its default."""

    kind: str = "synth"
    n_pos: int = 128
    n_neg: int = 128
    paths: tuple = ()
    max_per_class: int | None = None

    def __post_init__(self):
        if self.kind not in DATASET_FIELDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}, expected one of {tuple(DATASET_FIELDS)}")
        if not isinstance(self.paths, (list, tuple)) or not all(isinstance(p, str) and p for p in self.paths):
            # a bare string would split into one-letter paths, and open(0) reads stdin
            raise ValueError(f"dataset paths must be a list of non-empty strings, got {self.paths!r}")
        object.__setattr__(self, "paths", tuple(self.paths))
        for f in fields(self):
            if f.name not in ("kind", *DATASET_FIELDS[self.kind]) and getattr(self, f.name) != f.default:
                raise ValueError(f"dataset kind {self.kind!r} does not read {f.name!r}, got {getattr(self, f.name)!r}")
        if self.kind == "synth" and (self.n_pos < 2 or self.n_neg < 2):
            raise ValueError(f"synth needs n_pos and n_neg >= 2, got {self.n_pos}, {self.n_neg}")
        if self.kind == "idx" and len(self.paths) != 2:
            raise ValueError("idx dataset needs paths=(images, labels)")
        if self.kind == "cifar10" and len(self.paths) != 1:
            raise ValueError("cifar10 dataset needs paths=(batch_file,)")
        if self.max_per_class is not None and self.max_per_class < 1:
            raise ValueError(f"max_per_class must be >= 1, got {self.max_per_class}")


@dataclass(frozen=True)
class RandomOutCfg:
    tau: float = 1e-8
    p_active: float = 1.0
    check_every: int = 1

    def __post_init__(self):
        _check_finite("tau", self.tau)
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not 0.0 <= self.p_active <= 1.0:
            raise ValueError(f"p_active must be in [0, 1], got {self.p_active}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 30
    batch_size: int = 16
    lr: float = 0.05
    optimizer: str = "sgd"
    condition: str = "base"
    model: ModelCfg = field(default_factory=ModelCfg)
    dataset: DatasetCfg = field(default_factory=DatasetCfg)
    randomout: RandomOutCfg | None = None
    telemetry_tau: float = 1e-8
    dead_first_layer: bool = False

    def __post_init__(self):
        for name, cls in (("model", ModelCfg), ("dataset", DatasetCfg), ("randomout", RandomOutCfg)):
            value = getattr(self, name)
            if isinstance(value, dict):
                _check_fields(name, value, cls)
                object.__setattr__(self, name, cls(**value))
            elif not isinstance(value, cls) and not (value is None and name == "randomout"):
                raise ValueError(f"train field {name!r} must be an object, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**64:  # the random streams key on a 64-bit seed
            raise ValueError(f"seed must be < 2**64, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(f"epochs and batch_size must be >= 1, got {self.epochs}, {self.batch_size}")
        _check_finite("lr", self.lr)
        _check_finite("telemetry_tau", self.telemetry_tau)
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of {tuple(OPTIMIZERS)}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}, expected one of {CONDITIONS}")
        if self.telemetry_tau < 0:
            raise ValueError(f"telemetry_tau must be >= 0, got {self.telemetry_tau}")
        if self.condition == "randomout" and self.randomout is None:
            object.__setattr__(self, "randomout", RandomOutCfg())
        if self.condition != "randomout" and self.randomout is not None:
            raise ValueError("randomout settings are only valid with condition='randomout'")

    @classmethod
    def from_dict(cls, d):
        _check_fields("train", d, cls)
        return cls(**d)

    def to_dict(self):
        d = asdict(self)
        d["dataset"]["paths"] = list(d["dataset"]["paths"])
        return d

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self):
        """The sha256 of ``canonical_json()``, cut to HASH_CHARS; computed once per config.

        The config is frozen, so its hash is kept on the instance, outside
        the dataclass fields (equality, ``to_dict`` and ``replace`` never
        see it)."""
        h = self.__dict__.get("_config_hash")
        if h is None:
            h = hashlib.sha256(self.canonical_json().encode()).hexdigest()[:HASH_CHARS]
            object.__setattr__(self, "_config_hash", h)
        return h

    def replace(self, **kw):
        d = self.to_dict()
        # replacing the condition away from randomout drops stale settings
        d.update(kw)
        if d.get("condition") != "randomout":
            d["randomout"] = None
        return TrainConfig.from_dict(d)


def read_config_json(path):
    """The JSON object in a config file, not yet validated as a TrainConfig."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return raw


def load_config(path):
    raw = read_config_json(path)
    try:
        return TrainConfig.from_dict(raw)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None
