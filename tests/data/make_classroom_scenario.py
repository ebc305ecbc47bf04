"""Writes classroom_scenario.cfg: the scenario of acceptance criterion 11.

Eight people at 30 fps for 60 s, 128-d embeddings with noise_sigma 0.13;
the first 40 s (1 200 frames) train the gallery. In the 600-frame test part
every person is hidden again and again: the first occlusion starts at
1 200 + U[0, 60), each next one 60 + U[-10, 10] frames after the one
before, each lasts 3 to 14 frames, and none starts within 14 frames of the
end. The draws come from numpy.random.default_rng(PLACEMENT_SEED), person
by person, so the file is reproduced byte for byte.

Usage: python3 make_classroom_scenario.py [out_path]
"""

import sys
from pathlib import Path

import numpy as np

PLACEMENT_SEED = 11
PARTICIPANTS, FPS, SECONDS, TRAIN_SECONDS = 8, 30, 60, 40

HEAD = f"""\
# a classroom: {PARTICIPANTS} people, each hidden for 3-14 frames about every 2 s of the
# test part; written by make_classroom_scenario.py (placement seed {PLACEMENT_SEED})
participants = {PARTICIPANTS}
duration_seconds = {SECONDS}
fps = {FPS}
embedding_dim = 128
noise_sigma = 0.13
seed = 11
train_seconds = {TRAIN_SECONDS}
"""


def occlusions():
    """(label, start, length) of every occlusion, person by person."""
    rng = np.random.default_rng(PLACEMENT_SEED)
    n_train, n = TRAIN_SECONDS * FPS, SECONDS * FPS
    for i in range(1, PARTICIPANTS + 1):
        start = n_train + int(rng.integers(0, 60))
        while start < n - 14:
            yield f"p{i:02d}", start, int(rng.integers(3, 15))
            start += 60 + int(rng.integers(-10, 11))


def main(out_path):
    lines = [f"event = occlusion {label} {start} {length}"
             for label, start, length in occlusions()]
    Path(out_path).write_text(HEAD + "\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).with_name("classroom_scenario.cfg"))
