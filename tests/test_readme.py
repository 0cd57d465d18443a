"""The README's library example runs as written, so a renamed or reshaped
entry point cannot leave it stale."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def section_code(heading: str) -> str:
    """The first fenced python block under a level-2 heading of README.md."""
    with open(README) as fh:
        text = fh.read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_entry_points_example_runs():
    namespace = {}
    exec(compile(section_code("Library entry points"), README, "exec"), namespace)
    env, out = namespace["env"], namespace["out"]
    assert env.periods == out.periods_consumed == 10**5
    assert namespace["trace"].periods is not None
