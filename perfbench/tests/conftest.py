"""Self-tests of the benchmark; run explicitly, not part of tier-1:

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
for path in (os.path.join(ROOT, "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
