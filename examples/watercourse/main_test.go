package main

// The watercourse example runs both coordinators on virtual clocks, so
// its whole output — the counters and the latency comparison — is fixed.
func Example() {
	main()
	// Output:
	// watercourse: predictive vs reactive super coordination (§6.1)
	//   [reactive] 9 state entries measured, actuations acked=53 retries=388 pre-arms=0 hits=0 misses=0
	//   [predictive] 9 state entries measured, actuations acked=52 retries=405 pre-arms=12 hits=11 misses=0
	//
	// rate-in-place latency after a state change:
	//   reactive coordinator:   mean  15244 ms
	//   predictive coordinator: mean      0 ms
	//   prediction removed 100% of the actuation latency
}
