"""The benchmark's workloads by name."""

from wl_boundary import BoundaryGrid
from wl_classify import Classify
from wl_inner import Inner
from wl_mu import Mu

WORKLOADS = {w.name: w for w in (Classify(), BoundaryGrid(), Mu(), Inner())}
