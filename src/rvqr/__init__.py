"""Regularized (vector) quantile regression via entropic optimal transport
with a mean-independence constraint."""
