"""Campaign workload benchmark: whole Fig. 8, certainty, Titan and durable
campaigns, timed end to end and traced per layer (see README.md)."""
