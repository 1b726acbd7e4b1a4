package pipeline

// SearchBeam is the beam path on its own, for tests outside the package:
// SearchSchedule takes it only above 4096 assignments, and the showcase
// space (168) must be checked in both modes.
var SearchBeam = searchBeam
