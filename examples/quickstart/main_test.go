package main

// The quickstart runs on a virtual clock, so its whole output — the
// readings, the Discover listing and the service counters — is fixed.
func Example() {
	main()
	// Output:
	// quickstart: 10 simulated seconds of thermometer data
	//   09:00:01  stream 1/0 seq   0  18.4 °C (heard by rx-0)
	//   09:00:02  stream 1/0 seq   1  18.8 °C (heard by rx-0)
	//   09:00:03  stream 1/0 seq   2  19.2 °C (heard by rx-0)
	//   09:00:04  stream 1/0 seq   3  19.6 °C (heard by rx-0)
	//   09:00:05  stream 1/0 seq   4  20.0 °C (heard by rx-0)
	//   09:00:06  stream 1/0 seq   5  20.4 °C (heard by rx-0)
	//   09:00:07  stream 1/0 seq   6  20.8 °C (heard by rx-0)
	//   09:00:08  stream 1/0 seq   7  21.2 °C (heard by rx-0)
	//   09:00:09  stream 1/0 seq   8  21.6 °C (heard by rx-0)
	//   09:00:10  stream 1/0 seq   9  18.0 °C (heard by rx-0)
	//
	// discovered streams:
	//   1/0  messages=10 subscribed=true
	//
	// middleware: 10 receptions, 10 delivered, 0 duplicates removed
}
