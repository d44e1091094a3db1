"""The (alpha, k) pairs shared by the test modules."""

import math

# the five pairs every acceptance check runs on
ACCEPTANCE_PAIRS = [
    (0.0, 0.3),
    (0.0, 0.5),
    (0.25, 0.3),
    (-0.3, -0.4),
    (0.4, 0.5 * math.cos(0.4 * math.pi)),
]
