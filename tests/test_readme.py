import re
from pathlib import Path

import numpy as np

from oracles import szego_kernel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    capsys.readouterr()
    rep = namespace["rep"]
    assert np.array_equal(rep.theta.zeros, [0])
    expected = np.sqrt(3) / 2 * szego_kernel(0.5, rep.p.size)
    assert np.max(np.abs(rep.p - expected)) < 1e-12
