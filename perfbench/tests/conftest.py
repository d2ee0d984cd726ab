"""Import the benchmark's modules and the program from the checkout.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
