"""Named application scenarios: realistic multi-DNN request mixes.

The paper motivates multi-DNN inference with concrete applications
(scene understanding, continuous vision).  This module defines a small
catalogue of such applications as reproducible workload scenarios —
each a model mix plus an arrival pattern — used by the examples and the
scenario experiment.  Scenario mixes only use the ten evaluation models
so they run without registering the extended zoo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..models.ir import ModelGraph
from ..models.zoo import get_model
from .generator import arrival_times_ms


@dataclass(frozen=True)
class Scenario:
    """One named application workload."""

    name: str
    description: str
    model_names: Tuple[str, ...]
    interval_ms: float  # inter-arrival time of the request stream
    repeats: int = 1    # how many times the mix loops per episode

    def models(self) -> List[ModelGraph]:
        return [
            get_model(name)
            for _ in range(self.repeats)
            for name in self.model_names
        ]

    def arrivals(self, jitter: float = 0.0, seed: int = 0) -> List[float]:
        return arrival_times_ms(
            len(self.model_names) * self.repeats,
            self.interval_ms,
            jitter=jitter,
            seed=seed,
        )

    @property
    def num_requests(self) -> int:
        return len(self.model_names) * self.repeats


#: The scenario catalogue.
SCENARIOS: Dict[str, Scenario] = {
    "scene_understanding": Scenario(
        name="scene_understanding",
        description=(
            "The paper's motivating app: detection, recognition and "
            "captioning over each captured scene."
        ),
        model_names=("yolov4", "resnet50", "squeezenet", "vit", "bert"),
        interval_ms=120.0,
    ),
    "smart_camera": Scenario(
        name="smart_camera",
        description=(
            "Continuous classification of video frames with periodic "
            "heavier analytics — a lightweight-dominated stream."
        ),
        model_names=(
            "mobilenetv2", "mobilenetv2", "mobilenetv2", "resnet50",
            "mobilenetv2", "mobilenetv2", "mobilenetv2", "inceptionv4",
        ),
        interval_ms=40.0,
    ),
    "ar_assistant": Scenario(
        name="ar_assistant",
        description=(
            "An AR overlay: per-frame detection and depth-style CNN, "
            "with language grounding on demand."
        ),
        model_names=("yolov4", "googlenet", "bert", "yolov4", "googlenet"),
        interval_ms=80.0,
    ),
    "video_conference": Scenario(
        name="video_conference",
        description=(
            "Background segmentation plus face/expression analysis and "
            "live transcription, every frame group."
        ),
        model_names=("mobilenetv2", "resnet50", "squeezenet", "bert"),
        interval_ms=70.0,
        repeats=2,
    ),
    "photo_batch": Scenario(
        name="photo_batch",
        description=(
            "Offline gallery processing: everything arrives at once; "
            "throughput is all that matters."
        ),
        model_names=(
            "inceptionv4", "resnet50", "vit", "squeezenet", "googlenet",
            "alexnet", "vgg16",
        ),
        interval_ms=1e-6,
    ),
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    Raises:
        KeyError: for unknown scenario names.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name]


def all_scenarios() -> List[Scenario]:
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]
