"""JSON (de)serialization of models and plans.

A production planner runs offline profiling on-device and ships plans to
the runtime; both sides need a stable wire format.  This module
serializes :class:`~repro.models.ir.ModelGraph` (so custom models can be
defined outside the zoo) and :class:`~repro.core.plan.PipelinePlan`
assignments (so a planned schedule can be stored and re-loaded).
"""

from __future__ import annotations

import json
from typing import Dict, TYPE_CHECKING

from .ir import Layer, ModelGraph, OpType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import PipelinePlan

#: Format version embedded in every document.
FORMAT_VERSION = 1


def model_to_dict(model: ModelGraph) -> Dict:
    """Plain-dict form of a model graph."""
    return {
        "version": FORMAT_VERSION,
        "kind": "model",
        "name": model.name,
        "family": model.family,
        "input_bytes": model.input_bytes,
        "layers": [
            {
                "name": layer.name,
                "op": layer.op.value,
                "flops": layer.flops,
                "weight_bytes": layer.weight_bytes,
                "activation_bytes": layer.activation_bytes,
                "output_bytes": layer.output_bytes,
                "output_shape": list(layer.output_shape),
            }
            for layer in model.layers
        ],
    }


def model_from_dict(data: Dict) -> ModelGraph:
    """Reconstruct a model graph from its dict form.

    Raises:
        ValueError: on version/kind mismatch or malformed layers.
        KeyError: on missing fields.
    """
    if data.get("kind") != "model":
        raise ValueError(f"not a model document: kind={data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {data.get('version')!r}"
        )
    layers = tuple(
        Layer(
            name=entry["name"],
            op=OpType(entry["op"]),
            flops=float(entry["flops"]),
            weight_bytes=float(entry["weight_bytes"]),
            activation_bytes=float(entry["activation_bytes"]),
            output_bytes=float(entry["output_bytes"]),
            output_shape=tuple(entry.get("output_shape", ())),
        )
        for entry in data["layers"]
    )
    return ModelGraph(
        name=data["name"],
        layers=layers,
        family=data.get("family", "cnn"),
        input_bytes=float(data.get("input_bytes", 0.0)),
    )


def model_to_json(model: ModelGraph, indent: int | None = None) -> str:
    return json.dumps(model_to_dict(model), indent=indent)


def model_from_json(text: str) -> ModelGraph:
    return model_from_dict(json.loads(text))


def save_model(model: ModelGraph, path: str) -> None:
    """Write a model to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model, indent=2))


def load_model(path: str) -> ModelGraph:
    """Read a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(handle.read())


def plan_to_dict(plan: "PipelinePlan") -> Dict:
    """Plain-dict form of a plan's placement decisions.

    Stores the SoC name, stage processor names, execution order and
    per-request slices — everything a runtime needs to reconstruct the
    schedule given the same model set.
    """
    return {
        "version": FORMAT_VERSION,
        "kind": "plan",
        "soc": plan.soc.name,
        "processors": [p.name for p in plan.processors],
        "order": list(plan.order),
        "requests": [
            {
                "model": assignment.model_name,
                "slices": [
                    None if s is None else [s[0], s[1]]
                    for s in assignment.slices
                ],
            }
            for assignment in plan.assignments
        ],
    }


def plan_to_json(plan: "PipelinePlan", indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan), indent=indent)


def plan_from_dict(data: Dict, soc, profiler) -> "PipelinePlan":
    """Reconstruct a plan against a (re-)profiled SoC.

    Args:
        data: Output of :func:`plan_to_dict`.
        soc: The target :class:`~repro.hardware.soc.SocSpec`; its name
            must match the stored plan.
        profiler: A :class:`~repro.profiling.profiler.SocProfiler` used
            to attach fresh profiles to the stored placements.

    Raises:
        ValueError: on kind/version/SoC mismatch or invalid slices.
    """
    from ..core.plan import PipelinePlan, StageAssignment
    from .zoo import get_model

    if data.get("kind") != "plan":
        raise ValueError(f"not a plan document: kind={data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    if data["soc"] != soc.name:
        raise ValueError(
            f"plan was made for SoC {data['soc']!r}, not {soc.name!r}"
        )
    stored_procs = list(data["processors"])
    actual_procs = [p.name for p in soc.processors]
    if stored_procs != actual_procs:
        raise ValueError(
            f"processor order mismatch: stored {stored_procs}, "
            f"SoC has {actual_procs}"
        )
    assignments = []
    for request in data["requests"]:
        profile = profiler.profile(get_model(request["model"]))
        slices = [
            None if s is None else (int(s[0]), int(s[1]))
            for s in request["slices"]
        ]
        assignments.append(StageAssignment(profile=profile, slices=slices))
    return PipelinePlan(
        soc=soc,
        processors=tuple(soc.processors),
        assignments=assignments,
        order=tuple(data["order"]),
    )


def plan_from_json(text: str, soc, profiler) -> "PipelinePlan":
    return plan_from_dict(json.loads(text), soc, profiler)
