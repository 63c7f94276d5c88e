package main

// The reconnaissance example runs on a virtual clock with a seeded
// radio, so its whole output — inferred positions, the retasking and the
// summary — is fixed.
func Example() {
	main()
	// Output:
	// reconnaissance: 3 encrypted patrol units on a 1 km strip
	//
	// inferred unit positions (no GPS on the nodes):
	//   unit 1 ≈ (474.08, 153.12) ±130 m (confidence 0.83, 5 posts, source inferred)
	//   unit 2 ≈ (475.90, 246.45) ±128 m (confidence 0.83, 5 posts, source inferred)
	//   unit 3 ≈ (500.00, 242.87) ±96 m (confidence 0.75, 3 posts, source inferred)
	//
	// after scout hint: unit 2 ≈ (446.12, 253.67) ±62 m (source merged)
	//
	// retasking unit 2: 6 of 8 posts broadcast the request (targeted=true)
	//
	// summary: 207 encrypted messages decrypted by key holder, 0 unreadable, acks=1
}
