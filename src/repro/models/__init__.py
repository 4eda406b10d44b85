"""DNN model IR and the ten-model evaluation zoo."""

from .ir import (
    Layer,
    ModelGraph,
    NPU_SUPPORTED_OPS,
    OpType,
)
from .serialization import (
    load_model,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    save_model,
)
from .zoo import (
    LARGE_MODELS,
    LIGHTWEIGHT_MODELS,
    MEDIUM_MODELS,
    MODEL_BUILDERS,
    MODEL_NAMES,
    all_models,
    get_model,
)

__all__ = [
    "Layer",
    "ModelGraph",
    "NPU_SUPPORTED_OPS",
    "OpType",
    "load_model",
    "model_from_dict",
    "model_from_json",
    "model_to_dict",
    "model_to_json",
    "save_model",
    "LARGE_MODELS",
    "LIGHTWEIGHT_MODELS",
    "MEDIUM_MODELS",
    "MODEL_BUILDERS",
    "MODEL_NAMES",
    "all_models",
    "get_model",
]
