"""``python -m qfeedback <subcommand> ...`` runs the command-line front end."""

from .cli import main

main()
