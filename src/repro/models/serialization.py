"""JSON (de)serialization of models.

This module serializes :class:`~repro.models.ir.ModelGraph`, so custom
models can be defined outside the zoo: ``hetero2pipe export-model``
writes one and :func:`load_model` reads it back.
"""

from __future__ import annotations

import json
from typing import Dict

from .ir import Layer, ModelGraph, OpType

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

