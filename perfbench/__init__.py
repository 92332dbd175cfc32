"""ADAssure benchmark: workloads, layer tracer and output checks."""
