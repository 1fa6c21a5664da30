"""ART benchmark: neural-network object recognition in a thermal image.

SPEC CPU2000 179.art trains an Adaptive Resonance Theory network on learned
objects and then scans a thermal image with a window, reporting where (and
with what confidence) each learned object appears.  We implement a compact
fuzzy-ART-style network with the same phases:

* **training** — competitive learning over noisy exemplars of the learned
  object classes (a hot filled square and a hot ring), updating the F2
  weight vectors;
* **scanning** — every window of the thermal image is normalised and
  matched against the F2 nodes (choice function + vigilance test); the
  window with the highest resonance wins.

The output is the winning window index, the winning class and the match
confidence.  Fidelity follows the paper: the error in the confidence of the
match, and whether the run still recognises the embedded object (Figure 6's
"% Images Recognized").
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from ...core.app import ErrorTolerantApp
from ...core.fidelity import FidelityMeasure, FidelityResult
from ...fidelity import RecognitionResult, compare_recognition
from ...sim import Machine, RunResult
from ...workloads import object_template, thermal_image_with_objects

#: Relative confidence drift tolerated while still counting as recognised.
CONFIDENCE_TOLERANCE = 0.25
#: Number of learned object classes (square and ring).
CLASS_COUNT = 2
#: Training exemplars per class.
EXEMPLARS_PER_CLASS = 6

ART_SOURCE = """
// Fuzzy-ART style object recognition: train F2 weights, scan the image.
int image[4096];
float weights[512];
float exemplars[4096];
int exemplar_class[64];
int n_exemplars;
int img_width;
int img_height;
int window_size;
int stride;
float learn_rate;
float vigilance;
float best_confidence_out;
int best_window_out;
int best_class_out;

tolerant float window_activation(int node, float window[], int count) {
    float num = 0.0;
    float norm = 0.0;
    for (int i = 0; i < count; i = i + 1) {
        float w = weights[node * 256 + i];
        float x = window[i];
        float m = fminf(w, x);
        num = num + m;
        norm = norm + w;
    }
    return num / (0.05 + norm);
}

tolerant float window_match(int node, float window[], int count) {
    float num = 0.0;
    float norm = 0.0;
    for (int i = 0; i < count; i = i + 1) {
        float w = weights[node * 256 + i];
        float x = window[i];
        float m = fminf(w, x);
        num = num + m;
        norm = norm + x;
    }
    return num / (0.0001 + norm);
}

tolerant void train(int classes, int count) {
    for (int e = 0; e < n_exemplars; e = e + 1) {
        int cls = exemplar_class[e];
        float sample[256];
        for (int i = 0; i < count; i = i + 1) {
            sample[i] = exemplars[e * 256 + i];
        }
        for (int i = 0; i < count; i = i + 1) {
            float w = weights[cls * 256 + i];
            float x = sample[i];
            float m = fminf(w, x);
            weights[cls * 256 + i] = learn_rate * m + (1.0 - learn_rate) * w;
        }
    }
}

tolerant void scan(int width, int height, int wsize, int step) {
    float best_conf = -1.0;
    int window_index = 0;
    best_window_out = -1;
    best_class_out = -1;
    for (int y = 0; y + wsize <= height; y = y + step) {
        for (int x = 0; x + wsize <= width; x = x + step) {
            float window[256];
            float total = 0.0;
            int count = wsize * wsize;
            for (int dy = 0; dy < wsize; dy = dy + 1) {
                for (int dx = 0; dx < wsize; dx = dx + 1) {
                    float v = (float) image[(y + dy) * width + (x + dx)];
                    window[dy * wsize + dx] = v;
                    total = total + v;
                }
            }
            if (total < 1.0) {
                total = 1.0;
            }
            for (int i = 0; i < count; i = i + 1) {
                window[i] = window[i] / total;
            }
            for (int node = 0; node < 2; node = node + 1) {
                float activation = window_activation(node, window, count);
                float match = window_match(node, window, count);
                if (match >= vigilance) {
                    if (activation > best_conf) {
                        best_conf = activation;
                        best_window_out = window_index;
                        best_class_out = node;
                    }
                }
            }
            window_index = window_index + 1;
        }
    }
    best_confidence_out = best_conf;
}

reliable int main() {
    int count = window_size * window_size;
    train(2, count);
    scan(img_width, img_height, window_size, stride);
    out(best_window_out, 0);
    out(best_class_out, 0);
    outf(best_confidence_out, 1);
    return 0;
}
"""


class ArtApp(ErrorTolerantApp):
    """ART-style thermal image recognition."""

    name = "art"
    description = "ART neural network image recognition"
    default_error_sweep = (0, 1, 2, 3, 4)

    def __init__(self, image_size: int = 24, window_size: int = 8, stride: int = 4) -> None:
        super().__init__()
        if image_size * image_size > 4096:
            raise ValueError("ART image is limited to 4096 pixels")
        if window_size * window_size > 256:
            raise ValueError("ART window is limited to 256 pixels")
        self.image_size = image_size
        self.window_size = window_size
        self.stride = stride

    def wire_params(self):
        return {"image_size": self.image_size,
                "window_size": self.window_size, "stride": self.stride}

    def source(self) -> str:
        return ART_SOURCE

    def fidelity_measure(self) -> FidelityMeasure:
        return FidelityMeasure(
            name="confidence error",
            unit="relative error in match confidence",
            higher_is_better=False,
            threshold=CONFIDENCE_TOLERANCE,
            threshold_description="recognised: right object, right window, "
                                  "confidence within 25% of error-free value",
        )

    # ------------------------------------------------------------------
    # Workload.
    # ------------------------------------------------------------------
    def generate_workload(self, seed: int) -> Dict[str, Any]:
        image, placements = thermal_image_with_objects(
            self.image_size, self.image_size, self.window_size, object_count=2, seed=seed)
        rng = random.Random(seed ^ 0xA57)
        exemplars: List[float] = []
        exemplar_classes: List[int] = []
        count = self.window_size * self.window_size
        for class_index in range(CLASS_COUNT):
            template = object_template(class_index, self.window_size)
            for _ in range(EXEMPLARS_PER_CLASS):
                noisy = [max(0.0, value * rng.uniform(0.9, 1.1)) for value in template]
                total = sum(noisy) or 1.0
                noisy = [value / total for value in noisy]
                padded = noisy + [0.0] * (256 - count)
                exemplars.extend(padded)
                exemplar_classes.append(class_index)
        initial_weights: List[float] = []
        for class_index in range(CLASS_COUNT):
            initial_weights.extend([1.0 / count] * count + [0.0] * (256 - count))
        return {
            "image": image,
            "placements": placements,
            "exemplars": exemplars,
            "exemplar_classes": exemplar_classes,
            "initial_weights": initial_weights,
        }

    def apply_workload(self, machine: Machine, workload: Dict[str, Any]) -> None:
        image = workload["image"]
        machine.write_global("image", image.pixels)
        machine.write_global("weights", workload["initial_weights"])
        machine.write_global("exemplars", workload["exemplars"])
        machine.write_global("exemplar_class", workload["exemplar_classes"])
        machine.write_global("n_exemplars", [len(workload["exemplar_classes"])])
        machine.write_global("img_width", [image.width])
        machine.write_global("img_height", [image.height])
        machine.write_global("window_size", [self.window_size])
        machine.write_global("stride", [self.stride])
        machine.write_global("learn_rate", [0.5])
        machine.write_global("vigilance", [0.1])

    def read_output(self, result: RunResult, workload: Dict[str, Any]) -> RecognitionResult:
        integers = result.output(0)
        confidences = result.output(1)
        best_window = int(integers[0]) if len(integers) > 0 else -1
        best_class = int(integers[1]) if len(integers) > 1 else -1
        confidence = float(confidences[0]) if confidences else 0.0
        return RecognitionResult(best_window=best_window, best_class=best_class,
                                 confidence=confidence)

    def score(self, reference: RecognitionResult, observed: RecognitionResult,
              workload: Dict[str, Any]) -> FidelityResult:
        comparison = compare_recognition(reference, observed,
                                         confidence_tolerance=CONFIDENCE_TOLERANCE)
        return FidelityResult(
            score=comparison.confidence_error,
            acceptable=comparison.recognized,
            perfect=(observed.best_window == reference.best_window
                     and observed.best_class == reference.best_class
                     and observed.confidence == reference.confidence),
            detail={
                "confidence_error": comparison.confidence_error,
                "recognized": 1.0 if comparison.recognized else 0.0,
                "location_correct": 1.0 if comparison.location_correct else 0.0,
            },
        )
