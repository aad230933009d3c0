"""Name of the plant kernel backend; the loop itself is ``plant.VehiclePlant.advance``."""

#: Stamped into its environment report by perfbench/run.py.
BACKEND = "pure"
