from hypothesis import settings

# CI runs with --hypothesis-profile ci: the same examples on every run, so a
# push cannot go red on a newly drawn case. Local runs keep exploring.
settings.register_profile("ci", derandomize=True, deadline=None)
