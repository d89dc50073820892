import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_examples_run():
    # every python block of the README, in order, in one namespace: a later
    # block may use the names an earlier one imported
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["relaxing"].f(0.5, 1.0, 0.0) == 1.0
    assert namespace["inlined"].f(0.5, 1.0, 0.0) == 1.0
