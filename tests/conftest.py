from hypothesis import settings

# the CI profile prints the blob that reproduces a failing draw (--hypothesis-profile=ci)
settings.register_profile("ci", print_blob=True)
