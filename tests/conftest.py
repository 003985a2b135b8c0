from hypothesis import settings

# Every property draws the same examples on every run: derandomized, with no
# example database and no deadline on a shared host.  Each test sets only its
# max_examples.
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")
