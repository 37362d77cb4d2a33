// Command drs-validator checks a dataset exposed through an OPeNDAP
// interface (or stored in a file) for compliance with the Data Reference
// Syntax metadata profile and ACDD completeness — the §3.1 tool of the
// paper.
//
// Usage:
//
//	drs-validator -url http://localhost:8080 -dataset lai
//	drs-validator -file lai.anc [-augment]
//
// Exit status 0 = compliant, 1 = findings with ERROR severity.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"applab/internal/drs"
	"applab/internal/netcdf"
	"applab/internal/opendap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drs-validator: ")
	var (
		baseURL = flag.String("url", "", "OPeNDAP server base URL")
		dataset = flag.String("dataset", "", "dataset name on the server")
		file    = flag.String("file", "", "local dataset file (netcdf binary encoding)")
		augment = flag.Bool("augment", false, "apply automatic NcML-style augmentation before validating")
	)
	flag.Parse()

	var ds *netcdf.Dataset
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		var derr error
		ds, derr = netcdf.Read(f)
		if derr != nil {
			log.Fatal(derr)
		}
	case *baseURL != "" && *dataset != "":
		// Validate the remote dataset via full variable fetches guided by
		// the DDS; for the profile we only need structure and attributes,
		// so fetching the smallest variable is enough — but the simplest
		// faithful route is fetching the dataset whole.
		client := opendap.NewClient(*baseURL)
		ctx := context.Background()
		names, err := client.Catalog(ctx)
		if err != nil {
			log.Fatal(err)
		}
		found := false
		for _, n := range names {
			if n == *dataset {
				found = true
			}
		}
		if !found {
			log.Fatalf("dataset %q not in catalog %v", *dataset, names)
		}
		// Fetch every variable named in the DDS to rebuild the dataset.
		dds, err := client.DDS(ctx, *dataset)
		if err != nil {
			log.Fatal(err)
		}
		_, ddsVars, err := opendap.ParseDDS(dds)
		if err != nil {
			log.Fatal(err)
		}
		ds = nil
		for _, dv := range ddsVars {
			sub, err := client.Fetch(ctx, *dataset, opendap.Constraint{Var: dv.Name})
			if err != nil {
				log.Fatal(err)
			}
			if ds == nil {
				ds = sub
				ds.Name = *dataset
			} else {
				mergeDataset(ds, sub)
			}
		}
		if ds == nil {
			log.Fatalf("dataset %q has no variables", *dataset)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *augment {
		ds = drs.AutoAugment(ds)
	}
	report := drs.Validate(ds)
	for _, f := range report.Findings {
		fmt.Println(f)
	}
	fmt.Printf("dataset %s: compliant=%v completeness=%.0f%%\n",
		report.Dataset, report.Compliant(), 100*report.Completeness())
	if !report.Compliant() {
		fmt.Println("recommendations:", drs.Recommend(ds))
		os.Exit(1)
	}
}

func mergeDataset(dst, src *netcdf.Dataset) {
	for k, v := range src.Attrs {
		if dst.Attrs[k] == "" {
			dst.Attrs[k] = v
		}
	}
	for _, v := range src.Vars {
		if _, ok := dst.Var(v.Name); ok {
			continue
		}
		for _, dn := range v.Dims {
			if _, ok := dst.Dim(dn); !ok {
				if d, ok := src.Dim(dn); ok {
					dst.AddDim(d.Name, d.Size)
				}
			}
		}
		dst.AddVar(v)
	}
}
