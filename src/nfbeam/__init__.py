"""Near-field beam tracking: channel model, trackers, and experiment harness.

A uniform linear array serves a moving reflector in its near field. The
package models the distance- and Doppler-exact channel, synthesizes echo
snapshots, and closes the loop between two trackers (per-CPI gradient ascent
on the echo likelihood, and an extended Kalman filter) and the predictive
transmit beamformer, with genie/far-field/periodic-feedback baselines.
"""

__version__ = "0.1.0"
