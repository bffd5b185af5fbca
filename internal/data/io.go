package data

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// SaveJSON writes the dataset as one indented JSON file. The format is
// self-describing and intended for interchange with other MDR research
// code.
func SaveJSON(d *Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: create %s: %w", path, err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("data: encode %s: %w", path, err)
	}
	return w.Flush()
}

// LoadJSON reads a dataset previously written by SaveJSON and validates
// it.
func LoadJSON(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open %s: %w", path, err)
	}
	defer f.Close()
	var d Dataset
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(&d); err != nil {
		return nil, fmt.Errorf("data: decode %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("data: %s: %w", path, err)
	}
	return &d, nil
}
