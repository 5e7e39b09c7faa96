"""Named, validated scenario specs for the control-plane kernel.

A :class:`ScenarioSpec` is a JSON-safe description of one complete
engine run: which harness (``testbed``, ``largescale`` or ``sharded``),
the harness config parameters, and the optional extras that do not fit
in a flat config — an ARX model (so the testbed skips system
identification), a per-application workload schedule, a trace recipe
(largescale and sharded), a fault spec.  Specs round-trip through
:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`, so they
can live in version-controlled JSON files and be diffed like any other
experiment artifact.

:class:`ScenarioRegistry` maps names to specs; :func:`builtin_registry`
ships the repository's reference scenarios (the same configurations the
golden-hash tests pin).  ``repro sim --list`` lists the registry,
``repro sim --scenario NAME|FILE --show`` validates and prints one
spec, and ``repro sim --scenario NAME|FILE`` builds and runs it through
:class:`~repro.engine.kernel.ControlPlane`, including checkpoint/resume
(:func:`scenario_source` is the rule that reads NAME|FILE).

:func:`resolve_scenario` is the one way a caller-supplied scenario — a
registry name or a spec document, plus dotted-path overrides
(:func:`apply_overrides`) — becomes a validated spec; the CLI, the HTTP
API and sweep expansion all go through it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.engine.interfaces import PlantBackend
from repro.engine.kernel import ControlPlane
from repro.engine.largescale_backend import build_largescale_engine
from repro.engine.sharded_backend import ShardedConfig, build_sharded_engine
from repro.engine.testbed_backend import build_testbed_engine
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig

__all__ = [
    "HARNESSES",
    "ScenarioError",
    "ScenarioRegistry",
    "ScenarioSpec",
    "apply_overrides",
    "builtin_registry",
    "parse_overrides",
    "resolve_scenario",
    "scenario_source",
]

#: Harnesses a scenario can target.
HARNESSES: Tuple[str, ...] = ("testbed", "largescale", "sharded")

#: Sharding keys a ``sharded`` scenario's params may carry on top of
#: the large-scale config fields (see
#: :class:`repro.engine.sharded_backend.ShardedConfig`).
_SHARD_KEYS: Tuple[str, ...] = ("n_pods", "workers", "sync_every_steps")

#: Workload spec types → (constructor name, required numeric fields).
_WORKLOAD_TYPES: Dict[str, Tuple[str, ...]] = {
    "constant": ("level",),
    "step": ("base", "high", "start_s", "end_s"),
    "ramp": ("start", "end", "start_s", "end_s"),
}


class ScenarioError(ValueError):
    """A scenario spec is malformed (see :meth:`ScenarioSpec.validate`)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, JSON-serializable engine scenario.

    Parameters
    ----------
    name / description:
        Identity and one-line intent, shown by ``repro sim --list``.
    harness:
        ``"testbed"`` (request-level DES, MPC controllers),
        ``"largescale"`` (trace-driven vectorized plant), or
        ``"sharded"`` (the large-scale plant partitioned into pods
        behind one control plane, optionally on a process pool).
    params:
        Keyword arguments for the harness config class
        (:class:`~repro.sim.testbed.TestbedConfig` or
        :class:`~repro.sim.largescale.LargeScaleConfig`).  JSON lists
        are coerced to the tuples the configs expect.  A ``sharded``
        scenario additionally takes ``n_pods`` / ``workers`` /
        ``sync_every_steps`` (see
        :class:`~repro.engine.sharded_backend.ShardedConfig`); every
        other key configures the underlying large-scale plant.
    model:
        Testbed only: ``{"a": [...], "b": [[...], ...], "g": float}``.
        When given, all controllers share this ARX model and the (slow)
        system-identification step is skipped.
    workloads:
        Testbed only: app index → workload spec, e.g.
        ``{"1": {"type": "step", "base": 10, "high": 20,
        "start_s": 90.0, "end_s": 180.0}}`` (JSON objects have string
        keys; integers are accepted too).
    trace:
        Large-scale only (required there): the synthetic-trace recipe
        ``{"n_servers": int, "n_days": int, "seed": int}``.
    faults:
        Optional fault spec in the :mod:`repro.faults` JSON format.
    """

    name: str
    description: str
    harness: str
    params: Mapping[str, Any] = field(default_factory=dict)
    model: Optional[Mapping[str, Any]] = None
    workloads: Optional[Mapping[Any, Mapping[str, Any]]] = None
    trace: Optional[Mapping[str, Any]] = None
    faults: Optional[Mapping[str, Any]] = None

    # -- JSON round-trip ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-safe dict; ``from_dict`` inverts it exactly."""
        doc: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "harness": self.harness,
            "params": _jsonify(self.params),
        }
        if self.model is not None:
            doc["model"] = _jsonify(self.model)
        if self.workloads is not None:
            doc["workloads"] = {
                str(k): _jsonify(v) for k, v in self.workloads.items()
            }
        if self.trace is not None:
            doc["trace"] = _jsonify(self.trace)
        if self.faults is not None:
            doc["faults"] = _jsonify(self.faults)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a JSON document (inverse of ``to_dict``)."""
        if not isinstance(doc, Mapping):
            raise ScenarioError(
                f"scenario document must be an object, got {type(doc).__name__}"
            )
        unknown = set(doc) - {
            "name", "description", "harness", "params", "model",
            "workloads", "trace", "faults",
        }
        if unknown:
            raise ScenarioError(f"unknown scenario fields {sorted(unknown)}")
        try:
            name = doc["name"]
            harness = doc["harness"]
        except KeyError as exc:
            raise ScenarioError(f"scenario document lacks {exc}") from None
        sections = {key: doc.get(key) for key in ("model", "workloads", "trace", "faults")}
        sections["params"] = doc.get("params", {})
        for key, section in sections.items():
            if not isinstance(section, Mapping) and (section is not None or key == "params"):
                raise ScenarioError(f"{key} must be an object, got {type(section).__name__}")
        sections["params"] = dict(sections["params"])
        return cls(
            name=str(name),
            description=str(doc.get("description", "")),
            harness=str(harness),
            **sections,
        )

    # -- validation ----------------------------------------------------

    def validate(self) -> List[str]:
        """Collect every problem in this spec (empty list = valid).

        Walks the whole spec so an author sees all mistakes at once,
        mirroring :func:`repro.faults.schedule.validate_spec` (which
        this reuses for the ``faults`` section).
        """
        problems: List[str] = []
        if not self.name or not str(self.name).strip():
            problems.append("name must be a non-empty string")
        if self.harness not in HARNESSES:
            problems.append(
                f"harness must be one of {list(HARNESSES)}, got {self.harness!r}"
            )
            return problems  # everything below is harness-specific
        if not isinstance(self.params, Mapping):
            problems.append(
                f"params must be an object, got {type(self.params).__name__}"
            )
            return problems
        problems += self._validate_params()
        problems += self._validate_model()
        problems += self._validate_workloads()
        problems += self._validate_trace()
        if self.faults is not None:
            from repro.faults import validate_spec

            problems += [f"faults: {p}" for p in validate_spec(dict(self.faults))]
        return problems

    def require_valid(self) -> "ScenarioSpec":
        """Return self, or raise :class:`ScenarioError` listing every problem."""
        problems = self.validate()
        if problems:
            raise ScenarioError(
                f"scenario {self.name!r} is invalid:\n  " + "\n  ".join(problems)
            )
        return self

    def _validate_params(self) -> List[str]:
        for reserved in ("faults", "workloads"):
            if reserved in self.params:
                return [
                    f"params may not contain {reserved!r}; "
                    f"use the top-level {reserved!r} section"
                ]
        try:
            # Bare config only: the faults/workloads/model sections have
            # their own validators with better-scoped messages.
            self._make_config(bare=True)
        except (TypeError, ValueError) as exc:
            return [f"params: {exc}"]
        return []

    def _validate_model(self) -> List[str]:
        if self.model is None:
            return []
        if self.harness != "testbed":
            return ["model: only the testbed harness takes an ARX model"]
        try:
            self._make_model()
        except (TypeError, ValueError, KeyError) as exc:
            return [f"model: {exc}"]
        return []

    def _validate_workloads(self) -> List[str]:
        if self.workloads is None:
            return []
        if self.harness != "testbed":
            return ["workloads: only the testbed harness takes workload schedules"]
        problems: List[str] = []
        for key, spec in self.workloads.items():
            label = f"workloads[{key!r}]"
            try:
                int(key)
            except (TypeError, ValueError):
                problems.append(f"{label}: key must be an app index")
                continue
            if not isinstance(spec, Mapping):
                problems.append(f"{label}: must be an object")
                continue
            kind = spec.get("type")
            if kind not in _WORKLOAD_TYPES:
                problems.append(
                    f"{label}: type must be one of {sorted(_WORKLOAD_TYPES)}, "
                    f"got {kind!r}"
                )
                continue
            required = _WORKLOAD_TYPES[kind]
            extra = set(spec) - {"type", *required}
            if extra:
                problems.append(f"{label}: unknown fields {sorted(extra)}")
            missing = [f for f in required if f not in spec]
            if missing:
                problems.append(f"{label}: missing fields {missing}")
                continue
            try:
                _make_workload(spec)
            except (TypeError, ValueError) as exc:
                problems.append(f"{label}: {exc}")
        return problems

    def _validate_trace(self) -> List[str]:
        if self.harness == "testbed":
            if self.trace is not None:
                return ["trace: only the largescale and sharded harnesses take a trace recipe"]
            return []
        if self.trace is None:
            return [f"trace: the {self.harness} harness needs a trace recipe "
                    '{"n_servers", "n_days", "seed"}']
        unknown = set(self.trace) - {"n_servers", "n_days", "seed"}
        if unknown:
            return [f"trace: unknown fields {sorted(unknown)}"]
        from repro.traces.generator import TraceConfig

        try:
            n_series = int(self.trace.get("n_servers", 0))
            TraceConfig(n_servers=n_series, n_days=int(self.trace.get("n_days", 1)))
        except (TypeError, ValueError) as exc:
            return [f"trace: {exc}"]
        try:
            n_vms = int(self.params.get("n_vms", LargeScaleConfig.n_vms))
        except (TypeError, ValueError):
            return []  # reported under params
        if n_series < n_vms:
            return [f"trace: n_servers ({n_series}) must be >= params.n_vms "
                    f"({n_vms}): each VM replays one trace series"]
        return []

    # -- construction --------------------------------------------------

    def build(self) -> Tuple[ControlPlane, PlantBackend]:
        """Build the ``(engine, backend)`` pair for this scenario.

        Raises :class:`ScenarioError` when the spec does not validate or
        the plant refuses its fault schedule (a sensor fault on a
        trace-driven harness, a server fault naming no server of the
        plant).  Drive the pair inside
        :func:`~repro.engine.kernel.run_session`, which starts the
        backend (or restores a checkpoint) and closes it afterwards.
        """
        from repro.faults import FaultSpecError

        self.require_valid()
        try:
            if self.harness == "testbed":
                return build_testbed_engine(
                    config=self._make_config(), model=self._make_model()
                )
            if self.harness == "sharded":
                return build_sharded_engine(self._make_trace(), self._make_config())
            return build_largescale_engine(self._make_trace(), self._make_config())
        except FaultSpecError as exc:
            raise ScenarioError(
                f"scenario {self.name!r} cannot run its faults: {exc}"
            ) from None

    def _make_config(self, bare: bool = False):
        params = {k: _tuplify(v) for k, v in self.params.items()}
        if self.faults is not None and not bare:
            from repro.faults import FaultSchedule

            params["faults"] = FaultSchedule.from_spec(dict(self.faults))
        if self.harness == "testbed":
            if self.workloads is not None and not bare:
                params["workloads"] = {
                    int(k): _make_workload(v) for k, v in self.workloads.items()
                }
            if "setpoints_ms" in params:
                params["setpoints_ms"] = {
                    int(k): float(v) for k, v in self.params["setpoints_ms"].items()
                }
            return TestbedConfig(**params)
        if self.harness == "sharded":
            shard_kwargs = {
                key: int(params.pop(key)) for key in _SHARD_KEYS if key in params
            }
            return ShardedConfig(base=LargeScaleConfig(**params), **shard_kwargs)
        return LargeScaleConfig(**params)

    def _make_model(self):
        if self.model is None:
            return None
        from repro.control.arx import ARXModel

        unknown = set(self.model) - {"a", "b", "g"}
        if unknown:
            raise ValueError(f"unknown fields {sorted(unknown)}")
        return ARXModel(
            a=list(self.model["a"]),
            b=[list(row) for row in self.model["b"]],
            g=float(self.model["g"]),
        )

    def _make_trace(self):
        from repro.traces.generator import TraceConfig, generate_trace

        assert self.trace is not None  # validate() ran first
        return generate_trace(
            TraceConfig(
                n_servers=int(self.trace["n_servers"]),
                n_days=int(self.trace.get("n_days", 1)),
            ),
            rng=int(self.trace.get("seed", 0)),
        )


def _jsonify(value: Any) -> Any:
    """Tuples → lists, recursively, so ``to_dict`` output is pure JSON."""
    if isinstance(value, Mapping):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _tuplify(value: Any) -> Any:
    """JSON lists → the tuples frozen config dataclasses expect."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _make_workload(spec: Mapping[str, Any]):
    from repro.apps.workload import ConstantWorkload, RampWorkload, StepWorkload

    kind = spec["type"]
    if kind == "constant":
        return ConstantWorkload(int(spec["level"]))
    if kind == "step":
        return StepWorkload(
            int(spec["base"]), int(spec["high"]),
            float(spec["start_s"]), float(spec["end_s"]),
        )
    if kind == "ramp":
        return RampWorkload(
            int(spec["start"]), int(spec["end"]),
            float(spec["start_s"]), float(spec["end_s"]),
        )
    raise ValueError(f"unknown workload type {kind!r}")


class ScenarioRegistry:
    """Name → :class:`ScenarioSpec` mapping with validation on insert."""

    def __init__(self, specs: Optional[List[ScenarioSpec]] = None):
        self._specs: Dict[str, ScenarioSpec] = {}
        for spec in specs or []:
            self.register(spec)

    def register(self, spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
        """Add *spec* (must validate); returns it for chaining."""
        spec.require_valid()
        if spec.name in self._specs and not replace:
            raise ScenarioError(f"scenario {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ScenarioSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; known: {', '.join(self.names()) or '-'}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self._specs[n] for n in self.names())

    def __len__(self) -> int:
        return len(self._specs)


def apply_overrides(
    base_doc: Mapping[str, Any], overrides: Mapping[str, Any]
) -> Dict[str, Any]:
    """A deep copy of *base_doc* with each dotted-path override applied.

    Paths address nested sections of the spec document (``params.seed``,
    ``trace.n_days``, ``workloads.1.high`` …).  Intermediate objects
    must already exist in the base — a typo'd path is an error, not a
    silently ignored override.
    """
    doc: Dict[str, Any] = copy.deepcopy(dict(base_doc))
    for path, value in overrides.items():
        parts = [p for p in str(path).split(".") if p]
        if not parts:
            raise ScenarioError(f"empty override path {path!r}")
        target: Any = doc
        for part in parts[:-1]:
            if not isinstance(target, dict):
                raise ScenarioError(
                    f"override path {path!r} descends through a non-object"
                )
            if part not in target:
                # Only the top-level sections may spring into existence
                # (a base spec without params/workloads is legal); a
                # missing *nested* key is almost certainly a typo.
                if target is doc and part in ("params", "workloads", "trace",
                                              "model", "faults"):
                    target[part] = {}
                else:
                    raise ScenarioError(
                        f"override path {path!r}: {part!r} does not exist "
                        "in the base spec"
                    )
            target = target[part]
        if not isinstance(target, dict):
            raise ScenarioError(
                f"override path {path!r} descends through a non-object"
            )
        target[parts[-1]] = value
    return doc


def parse_overrides(pairs: Iterable[str], grid: bool = False) -> Dict[str, Any]:
    """``PATH=VALUE`` strings (the ``--set`` flags) → an overrides mapping.

    VALUE is JSON when it parses, a bare string otherwise; with *grid*
    it is a comma list of such values (sweep axes).
    """
    def parse_value(text: str) -> Any:
        try:
            return json.loads(text)
        except ValueError:
            return text

    out: Dict[str, Any] = {}
    for pair in pairs:
        path, sep, raw = pair.partition("=")
        if not sep or not path:
            raise ScenarioError(f"--set needs PATH=VALUE, got {pair!r}")
        if grid:
            out[path] = [parse_value(v) for v in raw.split(",") if v != ""]
        else:
            out[path] = parse_value(raw)
    return out


def resolve_scenario(
    source: Union[str, Mapping[str, Any]],
    overrides: Optional[Mapping[str, Any]] = None,
    registry: Optional[ScenarioRegistry] = None,
) -> ScenarioSpec:
    """Registry name or spec document, plus overrides → a validated spec.

    Raises :class:`KeyError` for a name the registry does not hold and
    :class:`ScenarioError` for a document that is not an object, a bad
    override path or a spec that does not parse or validate.
    """
    if isinstance(source, str):
        if registry is None:  # not `or`: an empty registry is falsy
            registry = builtin_registry()
        doc = registry.get(source).to_dict()
    elif isinstance(source, Mapping):
        doc = dict(source)
    else:
        raise ScenarioError(
            f"scenario document must be an object, got {type(source).__name__}"
        )
    if overrides:
        doc = apply_overrides(doc, overrides)
    return ScenarioSpec.from_dict(doc).require_valid()


def scenario_source(arg: str) -> Any:
    """A command-line scenario argument → a :func:`resolve_scenario` source.

    The one rule of every command that takes a scenario: a builtin
    registry name first, else the path of a JSON spec file, whose parsed
    document is returned (``resolve_scenario`` refuses one that is not
    an object).
    """
    registry = builtin_registry()
    if arg in registry:
        return arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:
        raise ScenarioError(
            f"unknown scenario {arg!r} (and no such file); "
            f"known: {', '.join(registry.names())}"
        ) from None
    except ValueError as exc:
        raise ScenarioError(f"{arg} is not JSON: {exc}") from None


# The small shared ARX model used by the quick testbed scenarios (two
# tiers, gains in ms per GHz) — identification is skipped, so these run
# in seconds.
_TB_MODEL = {"a": [0.4], "b": [[-800.0, -300.0], [-100.0, -50.0]], "g": 1800.0}

_TB_PARAMS = {
    "n_servers": 2,
    "n_apps": 2,
    "duration_s": 180.0,
    "warmup_s": 20.0,
    "concurrency": 10,
    "initial_alloc_ghz": 0.6,
    "mpc_warm_start": False,
    # The builtin testbed scenarios are the golden-hash references: they
    # pin the scalar control path (fleet batching is allclose, not
    # bit-identical).  Override with --set params.control_mode=fleet
    # (repro sim) to run the production path.
    "control_mode": "scalar",
    "seed": 77,
}

_TB_FAULTS = {
    "seed": 3,
    "events": [
        {"time_s": 45.0, "kind": "server_crash", "target": "T1",
         "duration_s": 60.0},
        {"time_s": 60.0, "kind": "thermal_throttle", "target": "T0",
         "duration_s": 45.0, "fraction": 0.6},
        {"time_s": 90.0, "kind": "sensor_dropout", "target": "app0",
         "duration_s": 30.0, "probability": 1.0},
    ],
}

_LS_PARAMS = {"n_vms": 30, "n_servers": 50, "seed": 5}
_LS_TRACE = {"n_servers": 40, "n_days": 1, "seed": 13}

_LS_FAULTS = {
    "seed": 11,
    "events": [
        {"time_s": 3600.0, "kind": "server_crash", "target": "S0009",
         "duration_s": 7200.0},
        {"time_s": 10800.0, "kind": "thermal_throttle", "target": "S0010",
         "duration_s": 7200.0, "fraction": 0.5},
        {"time_s": 14400.0, "kind": "migration_failure", "target": None,
         "duration_s": 21600.0, "probability": 0.5},
    ],
}

_BUILTINS: List[ScenarioSpec] = [
    ScenarioSpec(
        name="testbed-small",
        description="2 apps on 2 servers, 180 s, shared fixed ARX model "
        "(quick MPC tracking demo)",
        harness="testbed",
        params=_TB_PARAMS,
        model=_TB_MODEL,
    ),
    ScenarioSpec(
        name="testbed-faulted",
        description="testbed-small plus a crash, a thermal throttle, and "
        "a sensor dropout (degraded-mode control)",
        harness="testbed",
        params=_TB_PARAMS,
        model=_TB_MODEL,
        faults=_TB_FAULTS,
    ),
    ScenarioSpec(
        name="testbed-integrated",
        description="two optimizer epochs plus a concurrency step on app 1 "
        "(the paper's integrated two-level mode)",
        harness="testbed",
        params={**_TB_PARAMS, "duration_s": 240.0,
                "optimize_at_s": [60.0, 180.0]},
        model=_TB_MODEL,
        workloads={"1": {"type": "step", "base": 10, "high": 20,
                         "start_s": 90.0, "end_s": 180.0}},
    ),
    ScenarioSpec(
        name="testbed-paper",
        description="the paper's testbed rig (Figs. 2-3): 8 apps on 4 "
        "servers, 600 s, ARX model identified at build",
        harness="testbed",
    ),
    ScenarioSpec(
        name="largescale-paper",
        description="the paper's Fig. 6 rig at full size: 5,415 VMs on "
        "3,000 servers over a 7-day trace, IPAC with DVFS",
        harness="largescale",
        params={"n_vms": 5415, "n_servers": 3000},
        trace={"n_servers": 5415, "n_days": 7, "seed": 7},
    ),
    ScenarioSpec(
        name="largescale-small",
        description="30 VMs on 50 servers over a 1-day synthetic trace, "
        "IPAC with DVFS",
        harness="largescale",
        params=_LS_PARAMS,
        trace=_LS_TRACE,
    ),
    ScenarioSpec(
        name="largescale-faulted",
        description="largescale-small plus a server crash, a throttle, and "
        "a migration-failure window",
        harness="largescale",
        params=_LS_PARAMS,
        trace=_LS_TRACE,
        faults=_LS_FAULTS,
    ),
    ScenarioSpec(
        name="sharded-small",
        description="largescale-small partitioned into 2 pods behind one "
        "control plane (2 process-pool workers)",
        harness="sharded",
        params={**_LS_PARAMS, "n_pods": 2, "workers": 2},
        trace=_LS_TRACE,
    ),
    ScenarioSpec(
        name="sharded-paper",
        description="paper scale: 20,000 VMs on 5,415 servers over a 1-day "
        "trace, 8 pods on 4 workers",
        harness="sharded",
        params={"n_vms": 20000, "n_servers": 5415, "seed": 5,
                "n_pods": 8, "workers": 4},
        trace={"n_servers": 20000, "n_days": 1, "seed": 13},
    ),
    ScenarioSpec(
        name="largescale-pmapper",
        description="largescale-small with the pMapper baseline instead of "
        "IPAC (no DVFS, paper Fig. 6 comparison)",
        harness="largescale",
        params={**_LS_PARAMS, "scheme": "pmapper"},
        trace=_LS_TRACE,
    ),
]


def builtin_registry() -> ScenarioRegistry:
    """A fresh registry holding the repository's reference scenarios."""
    return ScenarioRegistry(list(_BUILTINS))
