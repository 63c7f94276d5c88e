package main

// The habitat example runs on a virtual clock with a seeded radio, so
// its whole output — alarms, hourly means, the orphan claim and
// the summary — is fixed.
func Example() {
	main()
	// Output:
	// habitat: simulating 6 hours of a 12-sensor reserve
	//   [hourly] sensor 1 mean 14.06°C at 01:00 (derived stream 15728640/0)
	//   [alarm] sensor 12 crossed 19.0°C at 01:35 (rising=true)
	//   [alarm] sensor 11 crossed 19.0°C at 01:37 (rising=true)
	//   [alarm] sensor 10 crossed 19.0°C at 01:39 (rising=true)
	//   [hourly] sensor 1 mean 17.60°C at 02:00 (derived stream 15728640/0)
	//   [hourly] sensor 1 mean 19.64°C at 03:00 (derived stream 15728640/0)
	//   [hourly] sensor 1 mean 19.63°C at 04:00 (derived stream 15728640/0)
	//   [hourly] sensor 1 mean 17.58°C at 05:00 (derived stream 15728640/0)
	//
	// orphanage holds 12 unclaimed streams; claiming sensor 3's humidity backlog:
	//   recovered 128 buffered humidity readings; last three:
	//     05:57  78.1% RH
	//     05:58  78.0% RH
	//     05:59  78.0% RH
	//
	// summary: 55884 receptions → 12923 unique (4.3× duplication removed), 26 alarms, orphanage evictions=0
}
