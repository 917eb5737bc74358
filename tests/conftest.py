"""The one Hypothesis settings profile of the suite.

No deadline, because exact arithmetic on a large drawn case can take
longer than a fixed budget; and a reproduce blob printed with every
failure, so that any failing example can be replayed with
`@reproduce_failure`.  Tests set only `max_examples`.  Random inputs come
from `strategies.py`.
"""

from hypothesis import settings

settings.register_profile("orbitdeg", deadline=None, print_blob=True)
settings.load_profile("orbitdeg")
