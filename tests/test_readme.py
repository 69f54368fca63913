"""The README's code runs as written."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_sixty_second_tour_runs():
    with open(README, encoding="utf-8") as fh:
        tour = fh.read().split("## Sixty-second tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md (Sixty-second tour)", "exec"), scope)
    w, band = scope["w"], scope["band"]
    assert w.predictions.shape == band.shape == (50,)
    assert (band >= 0).all()
    truth = np.sin(np.linspace(0, 2 * np.pi, 50))
    assert np.max(np.abs(w.predictions - truth)) < 1e-3
