"""Two-stage scene summarization: balanced clustering of frame features, then a
contrastively trained autoencoder that picks one keyframe per cluster, with
spatial-divergence evaluation and classic baselines."""
