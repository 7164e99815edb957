package refstream

// GappedTermsEncoding exposes gappedTerms to the external test package,
// whose tests may import packages built on refstream.
var GappedTermsEncoding = gappedTerms
